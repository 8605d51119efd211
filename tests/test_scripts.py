import argparse
import importlib.util
import os
import re
import subprocess
import sys
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


def test_readme_synopsis_names_every_option():
    """Each subcommand's line in the README's "Command line" block names every
    long option its parser defines, but --help and --format, which the text
    under the block covers."""
    from gridecon import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.DOTALL).group(1)
    synopsis = {line.split()[1]: line for line in block.replace("\\\n", " ").splitlines()}
    (commands,) = (a for a in cli._parser("gridecon")._actions if isinstance(a, argparse._SubParsersAction))
    assert set(synopsis) == set(commands.choices)
    for name, parser in commands.choices.items():
        defined = {option for action in parser._actions for option in action.option_strings}
        named = set(re.findall(r"--[\w-]+", synopsis[name]))
        assert {o for o in defined if o.startswith("--")} - {"--help", "--format"} <= named, name


def run_console_script_check(bin_dir: Path, prelude: str | None = None):
    """tests/check_console_script.py with PATH holding only ``bin_dir``, where
    a ``gridecon`` that runs ``prelude`` before the CLI is put if one is given."""
    if prelude is not None:
        script = bin_dir / "gridecon"
        script.write_text(f"#!{sys.executable}\nimport sys\n{prelude}\nfrom gridecon.cli import main\nsys.exit(main())\n")
        script.chmod(0o755)
    env = dict(os.environ, PATH=str(bin_dir), PYTHONPATH=str(ROOT / "src"))
    checker = ROOT / "tests" / "check_console_script.py"
    return subprocess.run([sys.executable, str(checker)], env=env, capture_output=True, text=True, timeout=300)


def test_console_script_check_names_each_differing_output(tmp_path):
    # Every other invocation prints its golden file, so only norned fails.
    run = run_console_script_check(tmp_path, 'if sys.argv[1:] == ["norned"]:\n    print("changed")')
    assert run.returncode == 1
    assert "+changed\n" in run.stderr
    assert re.search(r"\n1 of \d+ failed: norned.txt\n$", run.stderr)
    assert "gridecon normalize --value 126.7 --currency USD" in run.stdout


def test_console_script_check_fails_without_the_command(tmp_path):
    run = run_console_script_check(tmp_path)
    assert run.returncode == 1
    assert "gridecon: command not found" in run.stderr


def test_console_script_check_fails_on_any_stderr_output(tmp_path):
    # Only norned warns; its stdout is still its golden file.
    prelude = 'if sys.argv[1:] == ["norned"]:\n    print("DeprecationWarning: soon", file=sys.stderr)'
    run = run_console_script_check(tmp_path, prelude)
    assert run.returncode == 1
    assert "stderr:\nDeprecationWarning: soon\n" in run.stderr
    assert re.search(r"\n1 of \d+ failed: norned.txt\n$", run.stderr)
