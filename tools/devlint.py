#!/usr/bin/env python3
"""Determinism-hazard self-lint for the repro codebase.

The repository promises byte-deterministic artifacts: journals resume,
evaluation caches hash their keys, and `repro verify/ingest --format
json` output must be identical across runs.
Six source-level hazards quietly break that promise — or, for
``DEV-BATCH-SOLVE`` and ``DEV-FAULT``, the performance and test
contracts next to it — and this tool flags them with a small AST walk
(stdlib only, no third-party deps):

* ``DEV-RANDOM`` — a call to the *module-level* :mod:`random` API
  (``random.random()``, ``random.shuffle()``, a bare ``shuffle()``
  imported from :mod:`random`, ...).  The global RNG is unseeded
  process state; deterministic code must thread an explicit
  ``random.Random(seed)`` instance.
* ``DEV-WALLCLOCK`` — ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()`` / ``utcnow()`` / ``today()`` reached from a
  cache-key or journal path (a module or enclosing function whose name
  mentions ``cache``, ``journal`` or ``checkpoint``).  Wall-clock
  values in keys or journaled records make reruns diverge byte-wise.
  Timing *measurements* elsewhere (profilers, wall_time metrics) are
  legitimate and out of scope.
* ``DEV-SET-ORDER`` — a ``for`` loop or comprehension iterating
  directly over a set literal, set comprehension or ``set(...)`` /
  ``frozenset(...)`` call.  Set iteration order depends on insertion
  history and hash seeding; anything it feeds into journaled or
  printed output is nondeterministic.  Iterate over ``sorted(...)``
  instead.
* ``DEV-BATCH-SOLVE`` — an ``np.linalg.solve(...)`` call lexically
  inside a ``for``/``while`` loop in batch code (a module or enclosing
  function whose name mentions ``batch`` or ``_many``, the suffix of
  the stacked entry points).  Looping per-member dense
  solves is exactly what the stacked ``(K, N, N)`` fast path exists to
  replace; stack the systems into one call, or mask the members, and
  route deliberate serial fallbacks through the member's own
  one-member solve.
* ``DEV-ENV`` — any ``os.environ`` / ``os.getenv`` / ``os.putenv``
  reference, or importing one of them ``from os``.  An environment
  variable is an execution knob no report records and no flag shows;
  a run's configuration comes from its arguments.
* ``DEV-FAULT`` — a ``faults.active()`` call (or a bare ``active()``
  imported from ``repro.runtime.faults``) anywhere but the documented
  fault hooks in :data:`FAULT_HOOKS`.  A gate on the injector elsewhere
  forks the execution path under injection, so fault runs would stop
  testing the path production runs.

A finding can be suppressed for one line with a trailing
``# devlint: ok`` comment (reviewed, understood, deliberate).

Usage::

    python tools/devlint.py [PATH ...]     # default: src/repro tools

Output is one ``path:line: CODE message`` line per finding, sorted, so
the tool's own output is deterministic.  Exit code 1 when anything is
flagged.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Module-level random API whose use implies the unseeded global RNG.
RANDOM_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Wall-clock constructors that must stay out of cache/journal paths.
TIME_ATTRS = frozenset({"time", "time_ns"})
DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Name fragments that mark a module/function as a cache-key or
#: journal path for the DEV-WALLCLOCK scope.
CLOCK_SCOPES = ("cache", "journal", "checkpoint")

#: Name fragments that mark a module/function as batch-kernel code for
#: the DEV-BATCH-SOLVE scope.
BATCH_SCOPES = ("batch", "_many")

#: ``os`` members that read or write the process environment.
ENV_ATTRS = frozenset({"environ", "getenv", "putenv"})

#: The only functions (by qualified name) that may consult the active
#: fault injector: the solver/metric hooks that trip faults, the cache's
#: value-affecting bypass and the stacked sweep engine's screen.
FAULT_HOOKS = frozenset(
    {
        "dc_operating_points",
        "transient",
        "MosPrimitive.evaluate",
        "evaluate_spec",
        "EvalBatch._precompute",
    }
)

SUPPRESS_MARK = "devlint: ok"


@dataclass(frozen=True, order=True)
class Finding:
    """One flagged hazard, orderable for deterministic output."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_numpy_linalg_solve(func: ast.expr) -> bool:
    """True for ``np.linalg.solve`` / ``numpy.linalg.solve`` references."""
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "solve"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "linalg"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("np", "numpy")
    )


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that are unambiguously sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _Checker(ast.NodeVisitor):
    """AST walk collecting determinism hazards for one file."""

    def __init__(self, path: str, module_name: str, source: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._lines = source.splitlines()
        self._func_stack: list[str] = []
        # Enclosing classes and functions, for qualified names.
        self._qual_stack: list[str] = []
        self._loop_depth = 0
        # Names bound by `from random import ...` / `import random as r`.
        self._random_names: set[str] = set()
        self._random_modules: set[str] = set()
        # Names bound by `import os` / `import os as o`.
        self._os_modules: set[str] = set()
        # Names bound by `from repro.runtime import faults` and by
        # `from repro.runtime.faults import active`.
        self._faults_modules: set[str] = set()
        self._faults_active_names: set[str] = set()
        self._module_scoped = any(
            token in module_name.lower() for token in CLOCK_SCOPES
        )
        self._module_batch_scoped = any(
            token in module_name.lower() for token in BATCH_SCOPES
        )

    # -- helpers -------------------------------------------------------

    def _suppressed(self, line: int) -> bool:
        if 1 <= line <= len(self._lines):
            return SUPPRESS_MARK in self._lines[line - 1]
        return False

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if not self._suppressed(line):
            self.findings.append(Finding(self.path, line, code, message))

    def _in_clock_scope(self) -> bool:
        if self._module_scoped:
            return True
        return any(
            token in name.lower()
            for name in self._func_stack
            for token in CLOCK_SCOPES
        )

    def _in_batch_scope(self) -> bool:
        if self._module_batch_scoped:
            return True
        return any(
            token in name.lower()
            for name in self._func_stack
            for token in BATCH_SCOPES
        )

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_modules.add(alias.asname or "random")
            elif alias.name == "os":
                self._os_modules.add(alias.asname or "os")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in RANDOM_FUNCS:
                    self._random_names.add(alias.asname or alias.name)
        elif node.module == "os":
            for alias in node.names:
                if alias.name in ENV_ATTRS:
                    self._flag_env(node, f"from os import {alias.name}")
        elif node.module == "repro.runtime":
            for alias in node.names:
                if alias.name == "faults":
                    self._faults_modules.add(alias.asname or "faults")
        elif node.module == "repro.runtime.faults":
            for alias in node.names:
                if alias.name == "active":
                    self._faults_active_names.add(alias.asname or "active")
        self.generic_visit(node)

    # -- environment ---------------------------------------------------

    def _flag_env(self, node: ast.AST, what: str) -> None:
        self._flag(
            node, "DEV-ENV",
            f"{what} makes the process environment an execution knob; "
            f"take the setting as an argument instead",
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in ENV_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in self._os_modules
        ):
            self._flag_env(node, f"os.{node.attr}")
        self.generic_visit(node)

    # -- function nesting ----------------------------------------------

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self._qual_stack.append(node.name)
        # A nested def's body runs per call, not per enclosing-loop
        # iteration — it starts outside any loop.
        saved, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved
        self._qual_stack.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._qual_stack.append(node.name)
        self.generic_visit(node)
        self._qual_stack.pop()

    # -- fault-injector gates ------------------------------------------

    def _is_faults_active(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self._faults_active_names
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "active"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._faults_modules
        )

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if owner in self._random_modules and attr in RANDOM_FUNCS:
                self._flag(
                    node, "DEV-RANDOM",
                    f"module-level random.{attr}() uses the unseeded "
                    f"global RNG; thread a random.Random(seed) instance",
                )
            elif owner == "time" and attr in TIME_ATTRS:
                if self._in_clock_scope():
                    self._flag(
                        node, "DEV-WALLCLOCK",
                        f"time.{attr}() in a cache/journal path makes "
                        f"reruns diverge; derive keys and journaled "
                        f"records from content, not the clock",
                    )
            elif owner == "datetime" and attr in DATETIME_ATTRS:
                if self._in_clock_scope():
                    self._flag(
                        node, "DEV-WALLCLOCK",
                        f"datetime.{attr}() in a cache/journal path "
                        f"makes reruns diverge; derive keys and "
                        f"journaled records from content, not the clock",
                    )
        elif isinstance(func, ast.Name) and func.id in self._random_names:
            self._flag(
                node, "DEV-RANDOM",
                f"{func.id}() from `from random import ...` uses the "
                f"unseeded global RNG; thread a random.Random(seed) "
                f"instance",
            )
        if (
            self._is_faults_active(func)
            and ".".join(self._qual_stack) not in FAULT_HOOKS
        ):
            self._flag(
                node, "DEV-FAULT",
                "faults.active() outside the documented fault hooks "
                "forks the execution path under injection; consult the "
                "injector only at a hook (" + ", ".join(sorted(FAULT_HOOKS))
                + ")",
            )
        if (
            _is_numpy_linalg_solve(func)
            and self._loop_depth > 0
            and self._in_batch_scope()
        ):
            self._flag(
                node, "DEV-BATCH-SOLVE",
                "per-member np.linalg.solve in a batch loop defeats the "
                "stacked (K, N, N) fast path; stack the systems or mask "
                "the members, and route deliberate serial fallbacks "
                "through the member's own one-member solve",
            )
        self.generic_visit(node)

    # -- set iteration -------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter):
            self._flag(
                node, "DEV-SET-ORDER",
                "for-loop iterates a set directly; order is "
                "nondeterministic — wrap in sorted(...)",
            )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            if _is_set_expression(gen.iter):
                self._flag(
                    gen.iter, "DEV-SET-ORDER",
                    "comprehension iterates a set directly; order is "
                    "nondeterministic — wrap in sorted(...)",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source text; returns sorted findings."""
    module_name = Path(path).stem
    tree = ast.parse(source, filename=path)
    checker = _Checker(path, module_name, source)
    checker.visit(tree)
    return sorted(checker.findings)


def lint_paths(paths: list[Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for root in paths:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.suffix == ".py":
            files.append(root)
    findings: list[Finding] = []
    for file in files:
        findings.extend(
            lint_source(file.read_text(encoding="utf-8"), str(file))
        )
    return sorted(findings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="devlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        default=[Path("src/repro"), Path("tools")],
        help="files or directories to lint (default: src/repro tools)",
    )
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"devlint: {len(findings)} finding(s)")
        return 1
    print("devlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
