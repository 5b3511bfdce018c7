"""The determinism-hazard self-lint (`tools/devlint.py`).

`tools/` is not a package, so the module is loaded straight from its
file path — the same way `make devlint` runs it.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

_TOOLS = Path(__file__).parents[1] / "tools" / "devlint.py"
_spec = importlib.util.spec_from_file_location("devlint", _TOOLS)
assert _spec is not None and _spec.loader is not None
devlint = importlib.util.module_from_spec(_spec)
# dataclasses resolves the module through sys.modules at class-creation
# time, so the module must be registered before executing it.
sys.modules["devlint"] = devlint
_spec.loader.exec_module(devlint)


def _lint(source: str, path: str = "mod.py"):
    return devlint.lint_source(textwrap.dedent(source), path)


def test_module_level_random_call_is_flagged():
    findings = _lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )
    assert [f.code for f in findings] == ["DEV-RANDOM"]
    assert "random.choice" in findings[0].message


def test_from_import_random_is_flagged():
    findings = _lint(
        """
        from random import shuffle

        def scramble(items):
            shuffle(items)
        """
    )
    assert [f.code for f in findings] == ["DEV-RANDOM"]


def test_seeded_rng_instance_is_fine():
    findings = _lint(
        """
        import random

        def pick(items, seed):
            rng = random.Random(seed)
            return rng.choice(items)
        """
    )
    assert findings == []


def test_wallclock_flagged_only_in_cache_scope():
    hazardous = """
        import time

        def make_cache_key(payload):
            return (payload, time.time())
        """
    benign = """
        import time

        def measure(fn):
            start = time.time()
            fn()
            return time.time() - start
        """
    assert [f.code for f in _lint(hazardous)] == ["DEV-WALLCLOCK"]
    assert _lint(benign) == []


def test_wallclock_scope_includes_module_name():
    source = """
        import time

        def stamp():
            return time.time_ns()
        """
    assert [f.code for f in _lint(source, "journal.py")] == ["DEV-WALLCLOCK"]
    assert _lint(source, "profiler.py") == []


def test_datetime_now_in_checkpoint_path_is_flagged():
    findings = _lint(
        """
        import datetime

        def write_checkpoint(state):
            return (state, datetime.now())
        """
    )
    assert [f.code for f in findings] == ["DEV-WALLCLOCK"]


def test_non_call_time_reference_is_fine():
    findings = _lint(
        """
        import time

        def cache_clock():
            return time.time
        """
    )
    assert findings == []


def test_set_iteration_is_flagged():
    findings = _lint(
        """
        def names(items):
            for item in {"b", "a"}:
                print(item)
            return [x for x in set(items)]
        """
    )
    assert [f.code for f in findings] == ["DEV-SET-ORDER", "DEV-SET-ORDER"]


def test_sorted_set_iteration_is_fine():
    findings = _lint(
        """
        def names(items):
            return [x for x in sorted(set(items))]
        """
    )
    assert findings == []


def test_suppression_comment_silences_one_line():
    findings = _lint(
        """
        import random

        def pick(items):
            return random.choice(items)  # devlint: ok
        """
    )
    assert findings == []


def test_findings_sort_deterministically(tmp_path):
    (tmp_path / "b.py").write_text(
        "import random\nrandom.random()\n"
    )
    (tmp_path / "a.py").write_text(
        "for x in {1, 2}:\n    pass\n"
    )
    findings = devlint.lint_paths([tmp_path])
    assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]
    rendered = findings[0].render()
    assert rendered.startswith(str(tmp_path / "a.py") + ":1: DEV-SET-ORDER")


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nrandom.random()\n")
    assert devlint.main([str(dirty)]) == 1
    assert "1 finding(s)" in capsys.readouterr().out
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert devlint.main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_repository_sources_are_clean():
    root = Path(__file__).parents[1]
    findings = devlint.lint_paths([root / "src" / "repro", root / "tools"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_batch_loop_solve_is_flagged():
    findings = _lint(
        """
        import numpy as np

        def solve_members_batch(systems):
            out = []
            for lhs, rhs in systems:
                out.append(np.linalg.solve(lhs, rhs))
            return out
        """
    )
    assert [f.code for f in findings] == ["DEV-BATCH-SOLVE"]
    assert "stacked" in findings[0].message


def test_many_entry_point_loop_solve_is_flagged():
    # Stacked entry points are named ``*_many``; a per-member solve loop
    # inside one is in batch scope too.
    findings = _lint(
        """
        import numpy as np

        def ac_analysis_many(systems):
            for lhs, rhs in systems:
                np.linalg.solve(lhs, rhs)
        """
    )
    assert [f.code for f in findings] == ["DEV-BATCH-SOLVE"]


def test_batch_module_while_loop_solve_is_flagged():
    findings = _lint(
        """
        import numpy as np

        def drain(queue):
            while queue:
                lhs, rhs = queue.pop()
                numpy.linalg.solve(lhs, rhs)
        """,
        path="src/repro/runtime/batched.py",
    )
    assert [f.code for f in findings] == ["DEV-BATCH-SOLVE"]


def test_solve_outside_batch_scope_is_fine():
    findings = _lint(
        """
        import numpy as np

        def newton_step(systems):
            for lhs, rhs in systems:
                np.linalg.solve(lhs, rhs)
        """
    )
    assert findings == []


def test_stacked_solve_outside_loop_is_fine():
    findings = _lint(
        """
        import numpy as np

        def solve_batch(lhs, rhs):
            return np.linalg.solve(lhs, rhs[..., None])[..., 0]
        """
    )
    assert findings == []


def test_nested_def_in_batch_loop_is_fine():
    findings = _lint(
        """
        import numpy as np

        def dispatch_batch(members):
            thunks = []
            for lhs, rhs in members:
                def thunk(lhs=lhs, rhs=rhs):
                    return np.linalg.solve(lhs, rhs)
                thunks.append(thunk)
            return thunks
        """
    )
    assert findings == []


def test_batch_loop_solve_suppressible():
    findings = _lint(
        """
        import numpy as np

        def rescue_batch(members):
            for lhs, rhs in members:
                np.linalg.solve(lhs, rhs)  # devlint: ok
        """
    )
    assert findings == []


def test_environment_access_is_flagged():
    findings = _lint(
        """
        import os
        import os as system
        from os import environ, path

        KNOB = os.environ.get("KNOB")
        other = os.getenv("OTHER", "x")
        os.putenv("A", "1")
        system.environ["B"] = "2"
        """
    )
    assert [(f.line, f.code) for f in findings] == [
        (4, "DEV-ENV"),
        (6, "DEV-ENV"),
        (7, "DEV-ENV"),
        (8, "DEV-ENV"),
        (9, "DEV-ENV"),
    ]
    assert "from os import environ" in findings[0].message
    assert "os.environ" in findings[1].message


def test_other_os_use_is_fine_and_env_suppressible():
    findings = _lint(
        """
        import os

        def cpus():
            return os.cpu_count(), os.path.join("a", "b")

        HOME = os.environ["HOME"]  # devlint: ok
        """
    )
    assert findings == []


def test_fault_gate_in_batch_helper_is_flagged():
    findings = _lint(
        """
        from repro.runtime import faults

        def plan_batch(runtime, tasks):
            if faults.active() is not None:
                return None
            return tasks

        class EvalBatch:
            def consume(self, index):
                from repro.runtime.faults import active

                return active()
        """
    )
    assert [(f.line, f.code) for f in findings] == [
        (5, "DEV-FAULT"),
        (13, "DEV-FAULT"),
    ]
    assert "documented fault hooks" in findings[0].message


def test_fault_gate_at_documented_hooks_is_fine():
    findings = _lint(
        """
        from repro.runtime import faults as injection

        def dc_operating_points(compileds):
            return injection.active()

        class MosPrimitive:
            def evaluate(self, dut):
                return injection.active()

        class EvalBatch:
            def _precompute(self):
                return injection.active()

        def helper():
            return injection.inject  # not a call of active()
        """
    )
    assert findings == []


def test_fault_gate_in_one_member_dc_entry_is_flagged():
    # The serial DC entry is a one-member call of dc_operating_points,
    # which holds the fault hook; a gate in the entry would trip twice.
    findings = _lint(
        """
        from repro.runtime import faults

        def dc_operating_point(compiled):
            if faults.active() is not None:
                return None
            return compiled
        """
    )
    assert [(f.line, f.code) for f in findings] == [(5, "DEV-FAULT")]
