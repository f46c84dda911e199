"""The import graph: one path per name, and an exact layer without numpy."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_submodule_import_gives_the_module():
    import friendly.scan as s

    assert isinstance(s, types.ModuleType)
    assert s.__name__ == "friendly.scan"


def test_exact_layer_runs_without_numpy():
    result = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from fractions import Fraction\n"
        "from friendly.abundancy import abundancy_index\n"
        "from friendly.arith import factorize\n"
        "from friendly.friend10 import Candidate, derive_residue_class, filter_chain\n"
        "assert abundancy_index(10) == Fraction(9, 5)\n"
        "assert derive_residue_class(1).modulus > 1\n"
        "report = filter_chain(Candidate(a=1, q_factorization=factorize(7 ** 2)))\n"
        "assert report.results\n"
        "assert 'friendly.scan' not in sys.modules\n"
        "assert 'friendly.sieve' not in sys.modules\n"
    )
    assert result.returncode == 0, result.stderr


def test_friend10_imports_only_arith_and_abundancy_keeps_its_four_names():
    # prime_support forms its own ceiling, so friend10 needs nothing from
    # abundancy, and abundancy carries no function that only tests call.
    tree = ast.parse((SRC / "friendly" / "friend10.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    ours = {name for name in imported if name.startswith((".", "friendly"))}
    assert ours == {".arith"}, ours

    import friendly.abundancy

    assert sorted(friendly.abundancy.__all__) == [
        "SolitaryVerdict",
        "abundancy_index",
        "find_friends",
        "solitary_certificate",
    ]


def test_cli_import_loads_every_layer():
    # perfbench/rep.py reads these modules from sys.modules after importing the CLI.
    result = run_python(
        "import sys\n"
        "import friendly.cli\n"
        "names = ('arith', 'friend10', 'scan', 'sieve', 'verify')\n"
        "missing = [n for n in names if 'friendly.' + n not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_process_pool():
    # scan imports its pool only for workers > 1, so one-shot commands skip it.
    result = run_python(
        "import sys\n"
        "import friendly.cli\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_binds_every_name_the_tracer_wraps():
    # perfbench/tracer.py swaps each (module, attribute) of SPANS and COUNTS
    # for a wrapper after importing the CLI, and perfbench/rep.py reads
    # friendly.sieve.np. The tracer is read, not imported: it imports the
    # benchmark's own modules.
    tracer = SRC.parent / "perfbench" / "tracer.py"
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTS")
    }
    wrapped = sorted({entry[:2] for entry in tables["SPANS"] + tables["COUNTS"]} | {("friendly.sieve", "np")})
    assert len(wrapped) > 10, wrapped
    result = run_python(
        "import sys\n"
        "import friendly.cli\n"
        f"wrapped = {wrapped!r}\n"
        "missing = [(m, a) for m, a in wrapped if not hasattr(sys.modules.get(m), a)]\n"
        "assert not missing, missing\n"
    )
    assert result.returncode == 0, result.stderr


def test_the_tracer_installs_and_restores_after_the_cli_import():
    # Tracer.install reaches each (module, attribute) of SPANS and COUNTS by
    # getattr, so a name the program stops binding breaks every traced
    # benchmark run. Runs the real tracer, which changes nothing on disk.
    perfbench = SRC.parent / "perfbench"
    result = run_python(
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import friendly.cli\n"
        "from tracer import COUNTS, SPANS, Tracer\n"
        "tracer = Tracer('test')\n"
        "tracer.install()\n"
        "saved = list(tracer._saved)\n"
        "try:\n"
        "    assert len(saved) == len(SPANS) + len(COUNTS) > 10, saved\n"
        "    unwrapped = [(m.__name__, a) for m, a, _, w in saved if getattr(m, a) is not w]\n"
        "    assert not unwrapped, unwrapped\n"
        "finally:\n"
        "    tracer.restore()\n"
        "kept = [(m.__name__, a) for m, a, f, _ in saved if getattr(m, a) is not f]\n"
        "assert not kept, kept\n"
    )
    assert result.returncode == 0, result.stderr
