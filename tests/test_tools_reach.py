"""tools/reach.py: the reach audit's rules on a synthetic package, and
its static option scan on this repository.

The full drive table takes minutes and runs in its own CI job
(``reach``); here a three-function package in ``tmp_path`` exercises
what ``--check`` passes and fails on.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''\
import functools


def called():
    def inner():
        return 1

    return inner()


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


class Box:
    def __repr__(self):
        return "Box()"
'''

CONFIG = '''\
from dataclasses import dataclass


@dataclass
class GlobalConfig:
    used: int = 1
    unused: int = 2
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclass / NamedTuple machinery looks the module up
    spec.loader.exec_module(module)
    return module


reach = _load_tool()


@pytest.fixture
def audit(tmp_path, monkeypatch):
    """Index the synthetic package and run one drive over it:
    ``audit(keep_text) -> (check problems, reached, functions)``."""
    package = tmp_path / "src" / "reachdemo"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))

    def drive():
        mod = importlib.import_module("reachdemo.mod")
        return mod.called() + mod.decorated()

    def run(keep_text=""):
        keep_file = tmp_path / "keep.txt"
        keep_file.write_text(keep_text)
        keep, problems = reach.load_keep(keep_file)
        functions = reach.index_functions(tmp_path / "src", "reachdemo")
        reached, failed = reach.run_drives([("demo", drive)], functions)
        listed = list(functions.values())
        return problems + failed + reach.check_functions(listed, reached, keep), reached, listed

    yield run
    for name in [name for name in sys.modules if name.startswith("reachdemo")]:
        del sys.modules[name]


def test_called_functions_are_reached_under_their_qualnames(audit):
    _problems, reached, _functions = audit()
    assert reached == {
        "reachdemo.mod:called": {"demo"},
        # A nested def carries Python's own qualname ...
        "reachdemo.mod:called.<locals>.inner": {"demo"},
        # ... and a decorated one is keyed on its decorator's line, which
        # is where its code object says it starts.
        "reachdemo.mod:decorated": {"demo"},
    }


def test_an_uncalled_function_fails_the_check(audit):
    problems, _reached, _functions = audit()
    # Box.__repr__ is unreached too, and exempt: nothing but a person
    # at a debugger calls one.
    assert problems == ["unreached and not listed: reachdemo.mod:uncalled"]


def test_a_keep_line_passes_it(audit):
    keep = "# comment\n\nreachdemo.mod:uncalled — doc: README tells users to call it\n"
    assert audit(keep)[0] == []


def test_a_stale_keep_line_fails(audit):
    problems, _reached, _functions = audit(
        "reachdemo.mod:uncalled — safety\n"
        "reachdemo.mod:called — reference: an oracle\n"
        "reachdemo.mod:gone — mode: workers\n"
    )
    assert problems == [
        "stale keep line, reached by demo: reachdemo.mod:called",
        "stale keep line, names nothing that exists: reachdemo.mod:gone",
    ]


@pytest.mark.parametrize(
    "line, message",
    [
        ("reachdemo.mod:uncalled — a test calls it", "must start with one of safety, reference"),
        ("reachdemo.mod:uncalled - doc", "not 'module:qualname — reason'"),
        ("uncalled — doc", "not 'module:qualname — reason'"),
        ("reachdemo.mod:uncalled — doc\nreachdemo.mod:uncalled — doc", "listed twice"),
    ],
    ids=["fifth-reason", "hyphen-for-dash", "no-module", "listed-twice"],
)
def test_a_malformed_keep_line_fails(audit, line, message):
    problems = audit(line + "\n")[0]
    assert any(message in problem for problem in problems), problems


def test_a_failing_drive_is_a_problem_not_a_crash():
    def broken():
        raise TypeError("missing argument")

    reached, failed = reach.run_drives(
        [("broken", broken), ("exits", lambda: sys.exit(2)), ("fine", lambda: sys.exit(0))], {}
    )
    assert reached == {}
    assert failed == [
        "drive failed: broken: TypeError: missing argument",
        "drive failed: exits: SystemExit: 2",
    ]


def test_reach_table_counts_functions_and_unreached_lines(audit):
    _problems, reached, functions = audit()
    table = reach.reach_table(functions, reached, {"reachdemo.mod:uncalled": "doc"})
    assert table[0].split() == ["module", "functions", "reached", "kept", "lines"]
    assert table[1].split() == ["reachdemo.mod", "4", "3", "1", "2"]
    assert table[-1].split() == ["total", "4", "3", "1", "2"]


class TestOptions:
    def _tree(self, tmp_path, caller):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "config.py").write_text(CONFIG)
        (tmp_path / "app.py").write_text(caller)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_config.py").write_text("GlobalConfig(unused=5)\n")
        return tmp_path, tmp_path / "src"

    def test_a_field_only_tests_set_must_be_listed(self, tmp_path):
        root, src = self._tree(tmp_path, "GlobalConfig(used=3)\n")
        problems, fields = reach.check_options(root, src, {}, classes=("GlobalConfig",))
        assert fields == {"pkg.config:GlobalConfig.used", "pkg.config:GlobalConfig.unused"}
        assert problems == ["option nothing sets and not listed: pkg.config:GlobalConfig.unused"]
        keep = {"pkg.config:GlobalConfig.unused": "doc"}
        assert reach.check_options(root, src, keep, classes=("GlobalConfig",))[0] == []

    def test_a_listed_field_that_is_set_is_stale(self, tmp_path):
        root, src = self._tree(tmp_path, "GlobalConfig(used=3, unused=4)\n")
        keep = {"pkg.config:GlobalConfig.unused": "doc"}
        problems, _fields = reach.check_options(root, src, keep, classes=("GlobalConfig",))
        assert problems == ["stale keep line, option is set: pkg.config:GlobalConfig.unused"]

    def test_this_repository_passes_the_option_scan(self):
        """``python tools/reach.py --options``, as the CI job runs it."""
        keep, problems = reach.load_keep(reach.KEEP_FILE)
        assert problems == []
        option_problems, fields = reach.check_options(ROOT, ROOT / "src", keep)
        assert option_problems == []
        by_class = {}
        for key in fields:
            by_class.setdefault(key.partition(":")[2].partition(".")[0], []).append(key)
        assert sorted(by_class) == sorted(reach.OPTION_CLASSES)
        assert len(by_class["GlobalConfig"]) == 9
        assert len(by_class["StreamingConfig"]) == 5

    def test_every_keep_line_names_something_that_exists(self):
        """The static half of ``--check``'s staleness rule (whether a
        listed function is *reached* takes the full run)."""
        keep, _problems = reach.load_keep(reach.KEEP_FILE)
        names = {f.name for f in reach.index_functions(ROOT / "src", "repro").values()}
        _option_problems, fields = reach.check_options(ROOT, ROOT / "src", keep)
        assert sorted(set(keep) - names - fields) == []
