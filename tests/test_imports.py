"""Every submodule imports on its own in a fresh interpreter, so an import
cycle between submodules fails whichever module a caller imports first, and
importing the package loads no scipy module (scipy's import costs about
half a second of every CLI process); no module imports scipy at all, since
the package does not depend on it.  The rules for scalar settings live in
``model`` alone, and the backward scan serves only ``backward_pass``.  The
public names and the option count are pinned."""

import ast
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import migfilter

SRC = str(Path(migfilter.__file__).resolve().parents[1])
MODULES = sorted(info.name for info in pkgutil.iter_modules(migfilter.__path__))


@pytest.fixture(scope="module")
def imports():
    """One interpreter per submodule, all started at once."""
    procs = {
        module: subprocess.Popen(
            [sys.executable, "-c", f"import migfilter.{module}"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            cwd=SRC,
        )
        for module in MODULES
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_alone(imports, module):
    _, stderr = imports[module].communicate(timeout=120)
    assert imports[module].returncode == 0, stderr


def test_package_import_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, migfilter; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, cwd=SRC, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    """scipy is a test dependency only: no module of the package imports
    it, not even inside a function."""
    for path in sorted(Path(migfilter.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            where = f"{path.name}:{node.lineno}"
            assert all(name.split(".")[0] != "scipy" for name in names), where


def test_setting_rules_live_in_model():
    """"A whole number" and "a finite number" are decided in ``model``
    (``_whole``, ``_positive``): no other module calls ``math.isfinite`` or
    ``.is_integer()``, or refers to ``numbers.Integral``."""
    banned = {("math", "isfinite"), ("numbers", "Integral")}
    for path in sorted(Path(migfilter.__file__).parent.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [(getattr(node.value, "id", None), node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            where = f"{path.name}:{node.lineno}"
            assert not any(name in banned or name[1] == "is_integer" for name in names), where


def test_two_scan_route_serves_only_its_public_names():
    """The fitters and ``posteriors`` smooth from the forward rows alone:
    within the package, the backward scan is reached only through
    ``backward_pass``."""
    owners = {"_backward": "backward_pass"}
    users = {name: set() for name in owners}
    for path in sorted(Path(migfilter.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", f"{path.name}:{top.lineno}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in users:
                    users[name].add(where)
    assert users == {name: {owner} for name, owner in owners.items()}


def test_public_api():
    """The package's public names, pinned, so that adding or removing one
    shows in review as a change to this list."""
    assert sorted(migfilter.__all__) == [
        "BackwardResult", "CalibrationResult", "DataError", "EmConfig", "EvaluationReport",
        "EventStream", "FilterState", "FilterTrajectory", "ForwardResult", "HiddenFactorSpec",
        "ImpossibleObservationError", "MigfilterError", "MigrationLaw", "MigrationPanel", "Mode",
        "ModelError", "NumericalError", "PiecewisePath", "RatingPaths", "SimulationConfig",
        "SpreadConfig", "backward_pass", "build_panel", "demo_model", "em_fit",
        "em_fit_continuous", "evaluate_predictions", "forward_pass", "generator_to_transition",
        "ingest_ratings", "m_step", "model_from_json", "model_to_json", "posteriors",
        "predict_transition_probs", "r_squared", "realized_ratios", "risk_scores",
        "rolling_backtest", "run_continuous_filter", "run_filter", "simulate_events_continuous",
        "simulate_hidden_path", "simulate_panel_discrete", "sort_states_by_risk",
        "spread_jumps", "stream_to_panel", "transition_to_generator", "validate_model",
    ]


def test_star_import_binds_no_module():
    namespace = {}
    exec("from migfilter import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []


def defaulted_options(tree):
    """Defaulted positional and keyword-only parameters, plus fields with
    a default in ``@dataclass`` classes."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_option_count():
    """The package's options, counted, so that adding or removing one shows
    in review as a change to this number."""
    sources = sorted(Path(migfilter.__file__).parent.glob("*.py"))
    assert sum(defaulted_options(ast.parse(path.read_text())) for path in sources) == 29
