"""The runtime needs only the standard library."""

import json
import subprocess
import sys

from conftest import REPO


def test_package_imports_only_standard_library_modules():
    # -S leaves site-packages off sys.path, as the benchmark runs the CLI, and
    # the check below also catches a third-party module found some other way.
    names = sorted(p.stem for p in (REPO / "src" / "oncograph").glob("*.py"))
    script = "\n".join(
        ["import json, sys"]
        + [f"import oncograph.{n}" for n in names if n != "__init__"]
        + ["print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"]
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout)) - {"__main__", "oncograph"}
    assert sorted(loaded - set(sys.stdlib_module_names)) == []
