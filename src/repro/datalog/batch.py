"""Generated join kernels: one specialized closure per hot plan.

The step interpreter (:meth:`~repro.datalog.plan.JoinPlan.bindings`)
binds one tuple at a time: every candidate fact pays an iterator-stack
round trip, a ``run_fact_ops`` dispatch per position and a
``run_builder`` walk per head argument.  For a plan that has shown it is
hot, :meth:`~repro.datalog.plan.JoinPlan.fire` calls
:func:`compile_batched_kernel`, which *generates Python source*
specialized to that rule: the nested join loops are unrolled over the
plan's steps, slot reads/writes become local variables, constants and
index keys are baked into the closure's environment, and the hash
indices are bound once per firing (``dict.get`` hoisted out of the probe
loop) instead of re-entered per candidate binding.

Deltas are row lists: the delta step iterates the list with the rule's
slots as tuple-unpacking loop targets, and every derived head lands in
a plain output list via a bound ``list.append``.

The generated code preserves the step interpreter's semantics exactly:

* term comparison is ``a is b or a == b`` -- identity first (terms are
  hash-consed), equality as the fallback, same as ``run_term_match``;
* function terms destructure with the same ``type``/``name``/``len``
  triple check as the ``"f"`` match op;
* negated atoms test set membership against the live fact set;
* inequality checks run at the step where the plan scheduled them;
* rows come out in the same order, and the stats counters (bindings
  explored, index hits/misses, scans) are accumulated in locals and
  returned for the caller to merge into :class:`PlanStats`.

Every relation key, index position tuple, constant and functor name
reaches the source only as an environment name (``K0``, ``P1``, ``C2``,
``N3`` ...), so plans that differ only in those values generate the same
source text: a kernel *shape*.  Each shape is compiled once
(:data:`_SHAPES`) and every plan of that shape gets its own function
over the shared code object and its own environment.  The table holds
the code weakly, so a shape dies with its last kernel and clearing the
plan cache leaves a process as cold as a fresh one.
"""

from __future__ import annotations

import weakref
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Callable, Sequence, cast

from repro.datalog.term import Func, Term

if TYPE_CHECKING:
    from repro.datalog.database import Database, Fact
    from repro.datalog.plan import JoinPlan

    Kernel = Callable[
        ["Database", "Sequence[Fact] | None", "Database",
         Callable[["Fact"], None]],
        tuple[int, int, int, int, int]]


# -- code generation ------------------------------------------------------------


class _Emitter:
    """Accumulates generated source lines plus the closure environment."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict[str, object] = {"_Func": Func}
        self._names = 0

    def bind(self, value: object, prefix: str) -> str:
        """Inject ``value`` into the closure environment; return its name."""
        label = f"{prefix}{self._names}"
        self._names += 1
        self.env[label] = value
        return label

    def temp(self) -> str:
        label = f"v{self._names}"
        self._names += 1
        return label

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)


def _builder_expr(builder: tuple, em: _Emitter) -> str:
    """The expression constructing a ground term from bound slot locals."""
    kind = builder[0]
    if kind == "s":
        return f"s{builder[1]}"
    if kind == "c":
        return em.bind(builder[1], "C")
    name = em.bind(builder[1], "N")
    args = ", ".join(_builder_expr(b, em) for b in builder[2])
    comma = "," if len(builder[2]) == 1 else ""
    return f"_Func({name}, ({args}{comma}))"


def _tuple_expr(builders: tuple, em: _Emitter) -> str:
    parts = [_builder_expr(b, em) for b in builders]
    comma = "," if len(parts) == 1 else ""
    return "(" + ", ".join(parts) + comma + ")"


def _emit_term_match(em: _Emitter, indent: int, op: tuple, value: str,
                     fail: str) -> None:
    """Unroll one term-match program against the local named ``value``."""
    kind = op[0]
    if kind == "w":
        em.emit(indent, f"s{op[1]} = {value}")
    elif kind == "s":
        em.emit(indent, f"if s{op[1]} is not {value} and s{op[1]} != {value}:")
        em.emit(indent + 1, fail)
    elif kind == "c":
        const = em.bind(op[1], "C")
        em.emit(indent, f"if {const} is not {value} and {const} != {value}:")
        em.emit(indent + 1, fail)
    else:  # "f": destructure a non-ground function term
        name = em.bind(op[1], "N")
        em.emit(indent, f"if type({value}) is not _Func or {value}.name != "
                        f"{name} or len({value}.args) != {op[2]}:")
        em.emit(indent + 1, fail)
        args_name = em.temp()
        em.emit(indent, f"{args_name} = {value}.args")
        for i, sub in enumerate(op[3]):
            if sub[0] == "w":
                em.emit(indent, f"s{sub[1]} = {args_name}[{i}]")
            else:
                sub_value = em.temp()
                em.emit(indent, f"{sub_value} = {args_name}[{i}]")
                _emit_term_match(em, indent, sub, sub_value, fail)


def _emit_fact_ops(em: _Emitter, indent: int, ops: tuple,
                   value_of: Callable[[int], str], fail: str) -> None:
    """Unroll per-position fact ops; ``value_of(i)`` names position i."""
    for op in ops:
        kind, position = op[0], op[1]
        value = value_of(position)
        if kind == "store":
            em.emit(indent, f"s{op[2]} = {value}")
        elif kind == "check":
            em.emit(indent,
                    f"if s{op[2]} is not {value} and s{op[2]} != {value}:")
            em.emit(indent + 1, fail)
        elif kind == "const":
            const = em.bind(op[2], "C")
            em.emit(indent,
                    f"if {const} is not {value} and {const} != {value}:")
            em.emit(indent + 1, fail)
        else:  # "match"
            if not value.isidentifier():
                temp = em.temp()
                em.emit(indent, f"{temp} = {value}")
                value = temp
            _emit_term_match(em, indent, op[2], value, fail)


def _emit_ineqs(em: _Emitter, indent: int, ineqs: tuple, fail: str) -> None:
    for left, right in ineqs:
        left_expr = _builder_expr(left, em)
        right_expr = _builder_expr(right, em)
        em.emit(indent, f"if {left_expr} == {right_expr}:")
        em.emit(indent + 1, fail)


def _ground_value(builder: tuple) -> Term:
    """Evaluate a variable-free builder at compile time (pre-checks)."""
    if builder[0] == "c":
        return cast(Term, builder[1])
    return Func(builder[1], tuple(_ground_value(b) for b in builder[2]))


def _never_kernel(db: "Database", batch: "Sequence[Fact] | None",
                  neg: "Database",
                  out_append: Callable[["Fact"], None],
                  ) -> tuple[int, int, int, int, int]:
    """Kernel for plans whose variable-free inequalities cannot hold."""
    return (0, 0, 0, 0, 0)


_RETURN = "return (explored, hits, misses, fulls, deltas)"

#: kernel code per generated source text, held weakly: a shape lives
#: exactly as long as some plan's kernel runs it
_SHAPES: weakref.WeakValueDictionary[str, CodeType] = (
    weakref.WeakValueDictionary())


def _shape_code(source: str) -> CodeType:
    """The ``_kernel`` code object of ``source``, compiled once per shape."""
    code = _SHAPES.get(source)
    if code is None:
        module = compile(source, "<batched-kernel>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        _SHAPES[source] = code
    return code


def compile_batched_kernel(plan: "JoinPlan") -> "Kernel":
    """Generate the specialized kernel for one compiled plan.

    The kernel signature is ``kernel(db, batch, neg, out_append)`` and it
    returns the stats quintuple ``(bindings_explored, index_hits,
    index_misses, full_scans, delta_scans)``.  ``batch`` is the delta row
    list; it is only read when the plan has a delta step (and the caller
    guarantees it is non-empty in that case).
    """
    # Variable-free inequalities are decidable now: a violated one means
    # the rule can never fire, so the kernel is a constant.
    for left, right in plan.pre_checks:
        if _ground_value(left) == _ground_value(right):
            return _never_kernel

    em = _Emitter()
    em.emit(1, "explored = 0; hits = 0; misses = 0; fulls = 0; deltas = 0")

    steps = plan.steps
    # Hoist per-firing invariants: one live index dict (.get bound) per
    # probed (relation, positions) pair, the fact lists of full scans,
    # and the fact sets backing negated-atom checks.  The database does
    # not change during a kernel run (derived heads are buffered by the
    # caller), so these are loop invariants of the whole firing.
    for d, step in enumerate(steps):
        if step.use_delta:
            continue
        key_name = em.bind(step.key, "K")
        if step.index_positions:
            pos_name = em.bind(step.index_positions, "P")
            em.emit(1, f"_g{d} = db.index_map({key_name}, {pos_name}).get")
        else:
            em.emit(1, f"_f{d} = db.facts({key_name})")
            em.emit(1, f"_lf{d} = len(_f{d})")
    for j, (neg_key, _builders) in enumerate(plan.negated):
        key_name = em.bind(neg_key, "NK")
        em.emit(1, f"_ng{j} = neg.fact_set({key_name})")

    indent = 1
    for d, step in enumerate(steps):
        fail = "continue" if d > 0 else _RETURN
        if step.use_delta:
            em.emit(indent, "deltas += 1")
            em.emit(indent, "explored += len(batch)")
            targets: list[str] = []
            guarded: list[tuple] = []
            for op in step.scan_ops:
                if op[0] == "store":
                    targets.append(f"s{op[2]}")
                else:
                    targets.append(f"t{d}_{op[1]}")
                    guarded.append(op)
            if not targets:
                em.emit(indent, "for _ in batch:")
            else:
                em.emit(indent, f"for ({', '.join(targets)},) in batch:")
            indent += 1
            _emit_fact_ops(em, indent, tuple(guarded),
                           lambda i, d=d: f"t{d}_{i}", "continue")
        elif step.index_positions:
            if step.single_slot is not None:
                key_expr = f"(s{step.single_slot},)"
            else:
                key_expr = _tuple_expr(step.index_values, em)
            em.emit(indent, f"_b{d} = _g{d}({key_expr})")
            em.emit(indent, f"if _b{d} is None:")
            em.emit(indent + 1, "misses += 1")
            em.emit(indent + 1, fail)
            em.emit(indent, "hits += 1")
            em.emit(indent, f"explored += len(_b{d})")
            em.emit(indent, f"for f{d} in _b{d}:")
            indent += 1
            _emit_fact_ops(em, indent, step.residual_ops,
                           lambda i, d=d: f"f{d}[{i}]", "continue")
        else:
            em.emit(indent, "fulls += 1")
            em.emit(indent, f"explored += _lf{d}")
            em.emit(indent, f"for f{d} in _f{d}:")
            indent += 1
            _emit_fact_ops(em, indent, step.scan_ops,
                           lambda i, d=d: f"f{d}[{i}]", "continue")
        if step.ineqs:
            _emit_ineqs(em, indent, step.ineqs, "continue")

    inner_fail = "continue" if steps else _RETURN
    for j, (_neg_key, builders) in enumerate(plan.negated):
        em.emit(indent, f"if {_tuple_expr(builders, em)} in _ng{j}:")
        em.emit(indent + 1, inner_fail)
    em.emit(indent, f"out_append({_tuple_expr(plan.head_builders, em)})")
    em.emit(1, _RETURN)

    source = ("def _kernel(db, batch, neg, out_append):\n"
              + "\n".join(em.lines) + "\n")
    return cast("Kernel", FunctionType(_shape_code(source), em.env))
