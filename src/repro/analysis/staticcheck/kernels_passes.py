"""Kernel-module invariants: budget discipline and engine neutrality.

SC001 — every candidate loop in a kernel module must *dominate* a
budget ``checkpoint()``: either the loop (transitively) calls
``checkpoint``, or it streams — every ``yield`` hands a candidate
straight to the consumer (which charges per item) on every iteration.
A loop whose yields are *guarded* (nested under an ``if``/``try``
between the yield and its loop) can examine unboundedly many
candidates while yielding none, so deadlines and pair caps never
bite; those loops must poll the budget themselves.

SC002 — kernel modules are engine-neutral: they consume
:class:`~repro.plan.slabs.ExecutionContext` column views and bare row
indices, never the ``Relation`` substrate.  This promotes the original
grep-style source pin ("the word relation never appears") to a real
pass over imports and identifiers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from fnmatch import fnmatch
from pathlib import PurePath

from .base import CheckPass, call_target, walk_scope
from .findings import (
    ENGINE_NEUTRALITY,
    MISSING_CHECKPOINT,
    Finding,
    make_finding,
)
from .model import SourceModule

__all__ = ["BudgetCheckpointPass", "EngineNeutralityPass"]

#: Kernel modules, the scope of both passes (fnmatch on the
#: slash-normalized path, so ``kernels_passes.py`` — this file — and
#: test helpers that merely *mention* kernels stay out of scope).
KERNEL_MODULE_PATTERNS = ("*/plan/kernels*.py", "plan/kernels*.py")

_Loop = ast.For | ast.While
_Func = ast.FunctionDef | ast.AsyncFunctionDef


def _is_kernel_module(module: SourceModule, patterns: tuple[str, ...]) -> bool:
    path = PurePath(module.path).as_posix()
    name = PurePath(path).name
    return any(
        fnmatch(path if "/" in pat else name, pat) for pat in patterns
    )


def _loop_calls(loop: _Loop, name: str) -> bool:
    for node in walk_scope(loop):
        if isinstance(node, ast.Call):
            if call_target(node).rsplit(".", 1)[-1] == name:
                return True
    return False


def _loop_yields(loop: _Loop) -> list[ast.Yield | ast.YieldFrom]:
    return [
        n for n in walk_scope(loop)
        if isinstance(n, (ast.Yield, ast.YieldFrom))
    ]


def _yield_is_guarded(
    module: SourceModule, node: ast.AST, loop: _Loop
) -> bool:
    """True when a guard sits between the yield and its candidate loop.

    Walking up from the yield to ``loop``: loop nestings are streaming
    (each inner iteration still yields), ``Expr``/``Assign`` wrappers
    are transparent, but an ``if``/``try``/``with`` ancestor means the
    loop iteration can complete — having done its examination work —
    without handing anything to the charging consumer.
    """
    cur = module.parent(node)
    while cur is not None and cur is not loop:
        if isinstance(cur, (ast.If, ast.IfExp, ast.Try, ast.With, ast.Match)):
            return True
        cur = module.parent(cur)
    return False


class BudgetCheckpointPass(CheckPass):
    """SC001: candidate loops must dominate a ``checkpoint()`` call."""

    code = "SC001"
    name = "missing-checkpoint"

    def __init__(
        self, patterns: tuple[str, ...] = KERNEL_MODULE_PATTERNS
    ) -> None:
        self._patterns = patterns

    def run(self, module: SourceModule) -> Iterable[Finding]:
        if not _is_kernel_module(module, self._patterns):
            return
        for func in self._functions(module.tree):
            loops = [
                n for n in walk_scope(func, include_root=False)
                if isinstance(n, (ast.For, ast.While))
                and self._is_candidate_loop(n)
            ]
            for loop in self._outermost(module, loops):
                yield from self._check_loop(module, func, loop)

    @staticmethod
    def _functions(tree: ast.AST) -> list[_Func]:
        return [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _is_candidate_loop(loop: _Loop) -> bool:
        return bool(_loop_yields(loop)) or _loop_calls(loop, "verify")

    @staticmethod
    def _outermost(
        module: SourceModule, loops: list[_Loop]
    ) -> list[_Loop]:
        pool = set(loops)
        return [
            lp for lp in loops
            if not any(a in pool for a in module.ancestors(lp))
        ]

    def _check_loop(
        self, module: SourceModule, func: _Func, loop: _Loop
    ) -> Iterable[Finding]:
        if _loop_calls(loop, "checkpoint"):
            return
        yields = _loop_yields(loop)
        refines = _loop_calls(loop, "verify")
        if not refines and yields and not any(
            _yield_is_guarded(module, y, loop) for y in yields
        ):
            # Pure streaming generator: every iteration yields, the
            # executor charges per received candidate.
            return
        what = (
            "refines candidates via verify()" if refines
            else "generates candidates behind guarded yields"
        )
        yield make_finding(
            MISSING_CHECKPOINT, module.path, loop.lineno,
            f"loop {what} but no checkpoint() dominates its iterations; "
            "budget deadlines and pair caps cannot interrupt it",
            context=module.context_of(loop),
        )


class EngineNeutralityPass(CheckPass):
    """SC002: kernel modules never touch the ``Relation`` substrate."""

    code = "SC002"
    name = "engine-neutrality"

    def __init__(
        self, patterns: tuple[str, ...] = KERNEL_MODULE_PATTERNS
    ) -> None:
        self._patterns = patterns

    def run(self, module: SourceModule) -> Iterable[Finding]:
        if not _is_kernel_module(module, self._patterns):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if "relation" in source.lower().split("."):
                    yield self._finding(
                        module, node,
                        f"imports from the substrate package {source!r}",
                    )
                    continue
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names = [node.name]
            for name in names:
                if "relation" in name.lower():
                    yield self._finding(
                        module, node,
                        f"references substrate identifier {name!r}",
                    )

    @staticmethod
    def _finding(
        module: SourceModule, node: ast.AST, what: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return make_finding(
            ENGINE_NEUTRALITY, module.path, line,
            f"kernel module {what}; kernels consume ExecutionContext "
            "slabs and row indices only",
            context=module.context_of(node),
        )
