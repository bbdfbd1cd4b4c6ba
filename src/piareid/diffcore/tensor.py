"""Dense float64 tensors and the define-by-run reverse-mode tape.

The tape records one node per primitive application while a ``Tape`` context
is active and at least one input requires gradients.  At most one tape is
active per thread, as for ``Workspace``: entering a second raises
``TapeError`` and leaves the first one recording.  ``backward`` walks the
node list once, in reverse recording order, which is a valid topological
order for any define-by-run graph.  Gradients of leaf tensors accumulate
into ``Tensor.grad``; interior results never expose a ``grad``.

A node keeps only what backward reads: its rule's saved arrays (``ctx``)
and, per input, either the index of the earlier node of the same tape that
made it or, for a leaf (a parameter, a constant, another tape's result), the
``Tensor`` itself.  It holds no interior ``Tensor``: a result made on the
tape records its node's index in ``Tensor.origin``, so an intermediate goes
as soon as neither the caller nor some rule's ``ctx`` holds its array, during
the forward.  A conv output that only feeds a relu dies there, since relu
keeps its own output and conv keeps its ``cols``.  Nodes and gradients are
found by index, never by ``id()``: CPython reuses the id of a dead
intermediate for a later tensor.

Once a node's backward rule has run, ``backward`` releases the node: its
``ctx``, ``inputs`` and ``output`` are dropped, and any buffer its forward
rule borrowed goes back to its workspace.  So the tape frees what the
forward kept as the walk goes, and it pins no constant's data afterwards;
only each node's ``kind`` and ``backward_fn`` stay, so ``len(tape)`` still
counts the recorded nodes.

A forward rule takes a scratch array from ``borrow``: while a ``Workspace``
is active (at most one is, per thread), that is a loan from it, a view of
one of its buffers.  The loan goes back when its node is released or its
rule calls ``give_back``, or at once when the application is not recorded,
so no buffer is lent twice at a time.  The workspace lends by size, not
shape: a loan takes the smallest idle buffer that holds it.  So the convs
of a forward pass off the tape, each done with its ``cols`` before the next
conv starts, share one buffer, the largest they need, and an extraction
inside training borrows the buffers the training step gave back.
"""

from __future__ import annotations

import math
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

    ``data`` is a ``numpy.float64`` array (0-d for scalars), or, for a
    ``pixels`` constant only, a uint8 image batch.  ``grad`` stays ``None``
    until a backward pass deposits into it; repeated backward passes over
    fresh tapes accumulate.  ``origin`` is ``(tape, index)`` of the node that
    made the tensor on a tape, and ``None`` for a tensor no tape recorded.
    """

    __slots__ = ("data", "requires_grad", "grad", "origin")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.origin: tuple[Tape, int] | None = None

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


def pixels(rasters: np.ndarray) -> Tensor:
    """A constant over ``rasters``, a uint8 ``[N, C, H, W]`` image batch,
    not copied: ``conv2d`` reads each value v as v / 255."""
    if rasters.dtype != np.uint8 or rasters.ndim != 4:
        raise InvalidAttributeError(
            f"pixels must be a uint8 [N, C, H, W] array, got {rasters.dtype} {rasters.shape}")
    out = constant(0.0)
    out.data = rasters
    return out


class Node:
    """One recorded primitive application, as backward needs it.

    ``inputs`` holds one entry per input, in input order: the index on the
    same tape of the node that made it, or else the ``Tensor`` itself (a
    leaf).  ``output`` is the node's own index.  So a node pins no
    intermediate: what stays of one is what its consumers' ``ctx`` hold.
    """

    __slots__ = ("kind", "inputs", "output", "backward_fn", "ctx")

    def __init__(self, kind, inputs, output, backward_fn, ctx):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.ctx = ctx

    def release(self) -> None:
        """Drop the saved arrays and return the borrowed buffers."""
        give_back(self.ctx)
        self.ctx = self.inputs = self.output = None


_ACTIVE = threading.local()


def current_tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


def current_workspace() -> "Workspace | None":
    return getattr(_ACTIVE, "workspace", None)


class Workspace:
    """Float64 buffers lent by size for reuse, while the context is active.

    ``take(shape)`` lends the smallest idle buffer that holds ``prod(shape)``
    values, as a C-contiguous view of its first elements; when no idle
    buffer is that big, all of them are too small, so it drops them and
    lends a fresh uninitialised one.  ``give`` takes a loan back and makes
    its buffer idle again.  Buffers whose loans never overlap in time thus
    end up as one buffer, the largest of them.  Entering while another
    workspace is active raises ``TapeError``; leaving the context drops
    every buffer it holds.
    """

    def __init__(self):
        self._idle: list[np.ndarray] = []  # loans given back

    def take(self, shape) -> np.ndarray:
        size = math.prod(shape)
        best, best_size = None, 0
        for i, loan in enumerate(self._idle):
            held = _owner(loan).size
            # among equal sizes, the one given back last
            if held >= size and (best is None or held <= best_size):
                best, best_size = i, held
        if best is None:
            self._idle.clear()
            return np.empty(shape, dtype=np.float64)
        return _view(self._idle.pop(best), shape)

    def give(self, loan: np.ndarray) -> None:
        self._idle.append(loan)

    def __enter__(self) -> "Workspace":
        if current_workspace() is not None:
            raise TapeError("a workspace is already active")
        _ACTIVE.workspace = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._idle.clear()
        _ACTIVE.workspace = None


def _owner(loan: np.ndarray) -> np.ndarray:
    """The workspace buffer that ``loan`` views (numpy's ``base`` of a view
    of a view is the array that owns the memory)."""
    return loan if loan.base is None else loan.base


def _view(loan: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous ``shape`` view of the first elements of ``loan``'s
    buffer: ``loan`` itself when it has that shape, since every loan starts
    at its buffer's first element."""
    if loan.shape == tuple(shape):
        return loan
    return _owner(loan).reshape(-1)[: math.prod(shape)].reshape(shape)


def borrow(ctx: dict, shape) -> np.ndarray:
    """An uninitialised float64 ``shape`` array for the rule that owns ``ctx``:
    a loan from the active workspace (see ``give_back``), or a new array."""
    workspace = current_workspace()
    if workspace is None:
        return np.empty(shape, dtype=np.float64)
    buffer = workspace.take(shape)
    ctx.setdefault("borrowed", []).append((workspace, buffer))
    return buffer


def give_back(ctx: dict) -> None:
    """Return the loans ``borrow`` made for ``ctx`` to their workspace."""
    for workspace, buffer in ctx.pop("borrowed", ()):
        workspace.give(buffer)


class Tape:
    """Recording context.  Nodes land on the active tape; entering while
    another tape is active raises ``TapeError``."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if current_tape() is not None:
            raise TapeError("a tape is already active")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None

    def __len__(self) -> int:
        return len(self.nodes)


def record(kind: str, inputs: Sequence[Tensor], output: Tensor, backward_fn, ctx) -> None:
    """Put a node on the active tape; an application left off the tape
    returns what its forward rule borrowed at once."""
    tape = current_tape()
    if tape is not None and output.requires_grad:
        index = len(tape.nodes)
        entries = tuple(tens if (at := _index_on(tens, tape)) is None else at
                        for tens in inputs)
        tape.nodes.append(Node(kind, entries, index, backward_fn, ctx))
        output.origin = (tape, index)
    else:
        give_back(ctx)


def _index_on(tens: Tensor, tape: Tape) -> int | None:
    """The index of the node of ``tape`` that made ``tens``, if one did."""
    origin = tens.origin
    return origin[1] if origin is not None and origin[0] is tape else None


def backward(output: Tensor, tape: Tape) -> None:
    """Accumulate d(output)/d(leaf) into each leaf's ``grad``.

    ``output`` must be a scalar produced under ``tape``.  The tape is marked
    consumed; replaying it raises.  Each node is released once its rule has
    run (see the module docstring).
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

    nodes = tape.nodes
    seed = np.ones((), dtype=np.float64)
    at = _index_on(output, tape)
    grads: list[np.ndarray | None] = [None] * len(nodes)  # by the index of the maker
    if at is not None:
        grads[at] = seed
    # by id(): each entry holds its tensor, so no other tensor takes that id
    leaves: dict[int, tuple[Tensor, np.ndarray]] = {}

    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        grad_out, grads[index] = grads[index], None
        if grad_out is not None:
            input_grads = node.backward_fn(node.ctx, grad_out)
            for entry, grad_in in zip(node.inputs, input_grads):
                if grad_in is None:
                    continue
                if isinstance(entry, int):
                    held = grads[entry]
                    grads[entry] = grad_in if held is None else held + grad_in
                elif entry.requires_grad:
                    held = leaves.get(id(entry))
                    leaves[id(entry)] = (entry, grad_in if held is None else held[1] + grad_in)
        node.release()

    def deposit(tens: Tensor, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        tens.grad = grad.copy() if tens.grad is None else tens.grad + grad

    for tens, grad in leaves.values():
        deposit(tens, grad)
    if at is None and output.requires_grad:
        deposit(output, seed)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for tens in tensors:
        tens.grad = None
