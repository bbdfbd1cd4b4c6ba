"""Dense float64 tensors and the define-by-run reverse-mode tape.

The tape records one node per primitive application while a ``Tape`` context
is active and at least one input requires gradients.  ``backward`` walks the
node list once, in reverse recording order, which is a valid topological
order for any define-by-run graph.  Gradients of leaf tensors accumulate
into ``Tensor.grad``; interior results never expose a ``grad``.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np


class DiffcoreError(Exception):
    """Base class for autodiff failures."""


class ShapeMismatchError(DiffcoreError, ValueError):
    """Raised when primitive operands have incompatible shapes."""


class InvalidAttributeError(DiffcoreError, ValueError):
    """Raised when a primitive attribute is missing, mistyped, or out of range."""


class TapeError(DiffcoreError, RuntimeError):
    """Raised on misuse of the tape (non-scalar backward, reuse, and so on)."""


class Tensor:
    """A float64 array plus gradient bookkeeping.

    ``data`` is always a ``numpy.float64`` array (0-d for scalars).  ``grad``
    stays ``None`` until a backward pass deposits into it; repeated backward
    passes over fresh tapes accumulate.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Node:
    """One recorded primitive application."""

    __slots__ = ("kind", "inputs", "output", "backward_fn", "ctx")

    def __init__(self, kind, inputs, output, backward_fn, ctx):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.ctx = ctx


_ACTIVE = threading.local()


def _stack() -> list:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def current_tape() -> "Tape | None":
    stack = _stack()
    return stack[-1] if stack else None


class Tape:
    """Recording context.  Nodes land on the innermost active tape."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        top = _stack().pop()
        if top is not self:  # pragma: no cover - defensive
            raise TapeError("tape context exited out of order")

    def __len__(self) -> int:
        return len(self.nodes)


def record(kind: str, inputs: Sequence[Tensor], output: Tensor, backward_fn, ctx) -> None:
    tape = current_tape()
    if tape is not None and output.requires_grad:
        tape.nodes.append(Node(kind, tuple(inputs), output, backward_fn, ctx))


def backward(output: Tensor, tape: Tape) -> None:
    """Accumulate d(output)/d(leaf) into each leaf's ``grad``.

    ``output`` must be a scalar produced under ``tape``.  The tape is marked
    consumed; replaying it raises.
    """
    if not isinstance(tape, Tape):
        raise TapeError("backward needs the Tape that recorded the forward pass")
    if tape.consumed:
        raise TapeError("tape already consumed; rebuild the forward pass")
    if output.data.shape != ():
        raise TapeError(
            f"backward requires a scalar output, got shape {output.data.shape}"
        )
    tape.consumed = True

    produced = {id(node.output) for node in tape.nodes}
    grads: dict[int, np.ndarray] = {id(output): np.ones((), dtype=np.float64)}

    for node in reversed(tape.nodes):
        grad_out = grads.pop(id(node.output), None)
        if grad_out is None:
            continue
        input_grads = node.backward_fn(node.ctx, grad_out)
        for tens, grad_in in zip(node.inputs, input_grads):
            if grad_in is None or not tens.requires_grad:
                continue
            held = grads.get(id(tens))
            grads[id(tens)] = grad_in if held is None else held + grad_in

    def deposit(tens: Tensor, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        tens.grad = grad.copy() if tens.grad is None else tens.grad + grad

    seen: set[int] = set()
    for node in tape.nodes:
        for tens in node.inputs:
            key = id(tens)
            if key in seen or key in produced or not tens.requires_grad:
                continue
            seen.add(key)
            grad = grads.get(key)
            if grad is not None:
                deposit(tens, grad)
    if id(output) not in produced and output.requires_grad:
        deposit(output, grads[id(output)])


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for tens in tensors:
        tens.grad = None
