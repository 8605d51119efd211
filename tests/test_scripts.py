import importlib.util
import re
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


def test_readme_library_example_runs(capsys):
    """The README's library example names only symbols the package still has."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3
