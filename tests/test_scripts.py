import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoothing_experiment_output(capsys):
    load_script("smoothing_experiment").run()
    expected = (GOLDEN_DIR / "smoothing_experiment.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
