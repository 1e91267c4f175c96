"""A concrete interpreter for MiniJava product lines (IR level).

Executes the Jimple-like IR either of a preprocessed product (no
annotations) or of a whole product line *under a configuration* — in the
latter case disabled statements behave exactly like the feature-annotated
CFG prescribes (skip; branches and returns fall through; calls do not
happen), so an execution is a concrete witness for one path of the A2 /
SPLLIFT semantics.

The interpreter is the ground truth for differential testing: its traces
record actually-tainted prints and actually-uninitialized reads, which
the static may-analyses must over-approximate.  Dispatch is *dynamic*
(by the receiver's runtime class), a subset of the static CHA dispatch.

Executions are bounded by ``fuel`` (executed instruction steps of the
configured program; disabled instructions are free) and a call-depth
limit; a run that exhausts either, dereferences null, or divides by zero
stops early with ``trace.completed = False`` — the events collected up to
that point are still valid ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.constraints.base import ConfigurationLike, as_assignment
from repro.interp.values import ObjectRef, Value, bool_value, int_value, null_value, uninitialized
from repro.ir.instructions import (
    Assign,
    Atom,
    BinOp,
    Const,
    Declare,
    FieldLoad,
    FieldStore,
    Goto,
    If,
    Instruction,
    Invoke,
    LocalRef,
    NewObject,
    NondetValue,
    Print,
    Return,
    RValue,
    SecretValue,
    UnOp,
)
from repro.ir.program import IRMethod, IRProgram

__all__ = ["Interpreter", "ExecutionTrace", "InterpreterError"]


class InterpreterError(Exception):
    """Raised for malformed programs (not for bounded-execution stops)."""


@dataclass
class ExecutionTrace:
    """Everything observable about one execution."""

    prints: List[Tuple[Instruction, Value]] = field(default_factory=list)
    uninit_reads: List[Tuple[Instruction, str]] = field(default_factory=list)
    steps: int = 0
    completed: bool = True
    stop_reason: str = ""
    result: Optional[Value] = None
    #: set when the execution stopped on a null dereference:
    #: (instruction, name of the null local)
    null_dereference: Optional[Tuple[Instruction, str]] = None

    @property
    def tainted_prints(self) -> List[Tuple[Instruction, Value]]:
        return [(stmt, value) for stmt, value in self.prints if value.tainted]

    def printed_data(self) -> List[object]:
        return [value.data for _, value in self.prints]


class _Stop(Exception):
    """Internal: unwinds the interpreter on a bounded-execution stop."""

    def __init__(self, reason: str, null_dereference=None) -> None:
        self.reason = reason
        self.null_dereference = null_dereference


def _wrap32(value: int) -> int:
    """Java ``int`` semantics: wrap to signed 32 bits.

    Also keeps interpreter arithmetic O(1) — Python bignums would
    otherwise explode on generated programs that square a variable in a
    loop, making single steps arbitrarily slow."""
    return ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000


_ARITH = {
    "+": lambda a, b: _wrap32(a + b),
    "-": lambda a, b: _wrap32(a - b),
    "*": lambda a, b: _wrap32(a * b),
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Interpreter:
    """Concrete executor for IR programs / product lines."""

    def __init__(
        self,
        program: IRProgram,
        configuration: Optional[ConfigurationLike] = None,
        fuel: int = 200_000,
        max_depth: int = 200,
        secret_source: Optional[Callable[[], int]] = None,
        nondet_source: Optional[Callable[[], int]] = None,
    ) -> None:
        """
        Parameters
        ----------
        configuration:
            ``None`` to require a plain (annotation-free) program; a
            configuration to execute a product line feature-sensitively.
        secret_source / nondet_source:
            Suppliers for the ``secret()`` / ``nondet()`` intrinsics;
            defaults: the constant 42, and a deterministic 0/1 alternation.
        """
        self.program = program
        self._assignment: Optional[Dict[str, bool]] = None
        if configuration is not None:
            features: set = set()
            for method in program.all_methods():
                for instruction in method.instructions:
                    if instruction.annotation is not None:
                        features |= instruction.annotation.variables()
            self._assignment = as_assignment(configuration, features)
        self.fuel = fuel
        self.max_depth = max_depth
        self._secret = secret_source if secret_source is not None else lambda: 42
        if nondet_source is not None:
            self._nondet = nondet_source
        else:
            state = {"next": 0}

            def alternate() -> int:
                state["next"] ^= 1
                return state["next"] ^ 1

            self._nondet = alternate
        self._enabled_cache: Dict[Instruction, bool] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, entry: str = "Main.main") -> ExecutionTrace:
        """Execute from ``entry`` on a fresh receiver object."""
        method = self.program.method(entry)
        trace = ExecutionTrace()
        receiver = Value(ObjectRef(method.class_name))
        args = [int_value(0) for _ in method.params]
        try:
            trace.result = self._call(method, receiver, args, trace, depth=0)
        except _Stop as stop:
            trace.completed = False
            trace.stop_reason = stop.reason
            trace.null_dereference = stop.null_dereference
        return trace

    # ------------------------------------------------------------------
    # Statement interpretation
    # ------------------------------------------------------------------

    def _enabled(self, instruction: Instruction) -> bool:
        if instruction.annotation is None:
            return True
        if self._assignment is None:
            raise InterpreterError(
                f"annotated instruction {instruction.location} requires a "
                "configuration"
            )
        cached = self._enabled_cache.get(instruction)
        if cached is None:
            cached = instruction.annotation.evaluate(self._assignment)
            self._enabled_cache[instruction] = cached
        return cached

    def _call(
        self,
        method: IRMethod,
        receiver: Value,
        args: List[Value],
        trace: ExecutionTrace,
        depth: int,
    ) -> Value:
        if depth > self.max_depth:
            raise _Stop(f"call depth limit ({self.max_depth}) exceeded")
        locals_: Dict[str, Value] = {"this": receiver}
        for name, value in zip(method.params, args):
            locals_[name] = value
        for name in method.source_locals:
            locals_[name] = uninitialized()
        index = 0
        instructions = method.instructions
        while True:
            if index >= len(instructions):
                raise InterpreterError(
                    f"fell off the end of {method.qualified_name}"
                )
            instruction = instructions[index]
            if not self._enabled(instruction):
                # Disabled statements fall through — including branches
                # and returns (the feature-annotated CFG semantics).  They
                # cost no fuel: the configured product does not contain
                # them, so fuel counts the same steps in both executions.
                index += 1
                continue
            trace.steps += 1
            if trace.steps > self.fuel:
                raise _Stop(f"fuel ({self.fuel} steps) exhausted")
            if isinstance(instruction, (Declare,)):
                index += 1
            elif isinstance(instruction, Assign):
                locals_[instruction.target] = self._rvalue(
                    instruction.rvalue, instruction, locals_, trace, depth
                )
                index += 1
            elif isinstance(instruction, FieldStore):
                obj = self._deref(instruction.base, instruction, locals_, trace)
                value = self._atom(instruction.value, instruction, locals_, trace)
                # Stored values count as initialized from here on (the
                # static analysis does not track uninitializedness through
                # fields).
                obj.fields[instruction.field_name] = Value(
                    value.data, tainted=value.tainted, initialized=True
                )
                index += 1
            elif isinstance(instruction, If):
                taken = self._condition(instruction, locals_, trace)
                index = instruction.target if taken else index + 1
            elif isinstance(instruction, Goto):
                index = instruction.target
            elif isinstance(instruction, Print):
                value = self._atom(instruction.value, instruction, locals_, trace)
                trace.prints.append((instruction, value))
                index += 1
            elif isinstance(instruction, Invoke):
                result = self._invoke(instruction, locals_, trace, depth)
                if instruction.result is not None:
                    locals_[instruction.result] = result
                index += 1
            elif isinstance(instruction, Return):
                if instruction.value is None:
                    return int_value(0)
                return self._atom(instruction.value, instruction, locals_, trace)
            else:
                raise InterpreterError(f"unknown instruction {instruction!r}")

    # ------------------------------------------------------------------
    # Expression interpretation
    # ------------------------------------------------------------------

    def _atom(
        self,
        atom: Atom,
        at: Instruction,
        locals_: Dict[str, Value],
        trace: ExecutionTrace,
    ) -> Value:
        if isinstance(atom, Const):
            if atom.value is None:
                return null_value()
            if isinstance(atom.value, bool):
                return bool_value(atom.value)
            return int_value(atom.value)
        if isinstance(atom, LocalRef):
            value = locals_.get(atom.name)
            if value is None:
                # A temp read before any write cannot happen in lowered
                # code; treat it like an uninitialized source local.
                value = uninitialized()
                locals_[atom.name] = value
            if not value.initialized:
                trace.uninit_reads.append((at, atom.name))
            return value
        raise InterpreterError(f"unknown atom {atom!r}")

    def _deref(
        self,
        base: LocalRef,
        at: Instruction,
        locals_: Dict[str, Value],
        trace: ExecutionTrace,
    ) -> ObjectRef:
        value = self._atom(base, at, locals_, trace)
        if not isinstance(value.data, ObjectRef):
            raise _Stop(
                f"null dereference at {at.location}",
                null_dereference=(at, base.name),
            )
        return value.data

    def _rvalue(
        self,
        rvalue: RValue,
        at: Instruction,
        locals_: Dict[str, Value],
        trace: ExecutionTrace,
        depth: int,
    ) -> Value:
        if isinstance(rvalue, (Const, LocalRef)):
            value = self._atom(rvalue, at, locals_, trace)
            # A direct copy produces an *initialized* value — mirroring
            # the static analysis, which kills the target's uninit fact on
            # every assignment (the flagged event is the read just above).
            return Value(value.data, tainted=value.tainted, initialized=True)
        if isinstance(rvalue, SecretValue):
            return int_value(self._secret(), tainted=True)
        if isinstance(rvalue, NondetValue):
            return int_value(self._nondet())
        if isinstance(rvalue, NewObject):
            return Value(ObjectRef(rvalue.class_name))
        if isinstance(rvalue, FieldLoad):
            obj = self._deref(rvalue.base, at, locals_, trace)
            value = obj.fields.get(rvalue.field)
            if value is None:
                # Java default values: null for reference-typed fields,
                # zero for primitives.
                resolved = self.program.resolve_field(
                    obj.class_name, rvalue.field
                )
                if resolved is not None and resolved[1].is_class:
                    return null_value()
                return int_value(0)
            return value
        if isinstance(rvalue, BinOp):
            left = self._atom(rvalue.left, at, locals_, trace)
            right = self._atom(rvalue.right, at, locals_, trace)
            return self._binop(rvalue.op, left, right, at)
        if isinstance(rvalue, UnOp):
            operand = self._atom(rvalue.operand, at, locals_, trace)
            if rvalue.op == "!":
                return bool_value(not operand.data, tainted=operand.tainted)
            if rvalue.op == "-":
                return int_value(_wrap32(-operand.data), tainted=operand.tainted)
            raise InterpreterError(f"unknown unary operator {rvalue.op!r}")
        raise InterpreterError(f"unknown rvalue {rvalue!r}")

    def _binop(self, op: str, left: Value, right: Value, at: Instruction) -> Value:
        tainted = left.tainted or right.tainted
        if op in _ARITH:
            result = _ARITH[op](left.data, right.data)
        elif op == "==":
            result = left.data == right.data
        elif op == "!=":
            result = left.data != right.data
        elif op in ("/", "%"):
            if right.data == 0:
                raise _Stop(f"division by zero at {at.location}")
            result = _wrap32(
                left.data // right.data if op == "/" else left.data % right.data
            )
        elif op == "&&":
            result = bool(left.data) and bool(right.data)
        elif op == "||":
            result = bool(left.data) or bool(right.data)
        else:
            raise InterpreterError(f"unknown operator {op!r}")
        if isinstance(result, bool):
            return bool_value(result, tainted=tainted)
        return int_value(result, tainted=tainted)

    def _condition(
        self,
        instruction: If,
        locals_: Dict[str, Value],
        trace: ExecutionTrace,
    ) -> bool:
        cond = instruction.cond
        if isinstance(cond, (Const, LocalRef)):
            return bool(self._atom(cond, instruction, locals_, trace).data)
        if isinstance(cond, (BinOp, UnOp)):
            return bool(
                self._rvalue(cond, instruction, locals_, trace, depth=0).data
            )
        raise InterpreterError(f"unknown condition {cond!r}")

    # ------------------------------------------------------------------
    # Calls (dynamic dispatch)
    # ------------------------------------------------------------------

    def _invoke(
        self,
        instruction: Invoke,
        locals_: Dict[str, Value],
        trace: ExecutionTrace,
        depth: int,
    ) -> Value:
        obj = self._deref(instruction.receiver, instruction, locals_, trace)
        target = self.program.resolve_method(obj.class_name, instruction.method_name)
        if target is None:
            raise InterpreterError(
                f"{instruction.location}: no method {instruction.method_name!r} "
                f"on runtime class {obj.class_name!r}"
            )
        args = [
            self._atom(arg, instruction, locals_, trace)
            for arg in instruction.args
        ]
        receiver = Value(obj)
        return self._call(target, receiver, args, trace, depth + 1)
