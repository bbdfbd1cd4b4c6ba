"""Primitive catalog: forward rules, hand-derived backward rules, wrappers.

Every primitive is a pair of pure functions registered under a string kind.
``apply`` runs the forward rule, wraps the result, and records a tape node
when recording is active.  Backward rules receive the upstream gradient and
return one gradient (or ``None``) per input, in input order.  Before the
forward runs, ``apply`` puts ``ctx["needs_grad"]``, each input's
``requires_grad`` flag, so a rule may return ``None`` for an input that
needs no gradient instead of computing it.

Conventions:
  - spatial inputs are [N, C, H, W] and dense inputs are [N, D]; any other
    rank raises ``ShapeMismatchError``
  - ``conv2d`` lowers to im2col on a channels-last layout: the input is
    written once into a padded buffer whose border alone is zeroed, ``cols``
    is [N*Ho*Wo, kh*kw*C_in] with K ordered (kh, kw, C_in), and its
    [N, C, H, W] output is a transposed view of [N, Ho, Wo, C_out] memory, so
    spatial results may be non-contiguous; the input gradient is summed one
    kernel tap at a time into a padded buffer of the same layout
  - ``cols`` is a strided view of the padded buffer whenever numpy can give
    one, because a matmul over those strides rounds otherwise than over a
    contiguous copy; a needed copy goes into a ``borrow`` loan: inside a
    workspace a view of the smallest idle workspace buffer that holds it,
    lent by size, so one buffer serves every conv whose ``cols`` are never
    live at once; the buffer goes back when backward releases the node (or
    at once, off the tape); outside a workspace a new array
  - ``conv2d``'s input 0 alone may be a uint8 ``pixels`` batch, read as
    v / 255 into ``cols`` with the bits a float64 input of the quotients
    gives; those ``cols`` go back after the forward matmul, and the node
    keeps the uint8 padded buffer, from which backward makes them again
  - reductions to a scalar produce a 0-d array
  - ties in max operations route the full gradient to the lowest index

The seven elementwise kinds come from two rules, each registered under every
kind it serves with that kind's own math:
  - binary (``add``, ``sub``, ``mul``): the operands broadcast under numpy's
    rules; each input's gradient is summed back down to its shape
  - pointwise (``relu``, ``sigmoid``, ``abs``, ``scale``): the forward keeps
    one array (or the scale factor) for the backward to multiply by; relu
    and sigmoid keep their output, not their input, so a conv output that
    feeds a relu is pinned by no node

The six reduction kinds likewise come from two rules:
  - axis mean/sum (``mean``, ``sum``, ``channel_avg_pool`` over axis 1 with
    kept dims, ``global_avg_pool`` over axes 2 and 3): the backward expands
    the reduced dims, multiplies by ``1.0 / count`` (mean only) and
    broadcasts back to the input shape
  - axis max (``channel_max_pool`` over axis 1 with kept dims,
    ``global_max_pool`` over axes 2 and 3): the reduced axes, which must be
    adjacent, merge into one; the backward sends the whole gradient to the
    first maximiser along it
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    InvalidAttributeError,
    ShapeMismatchError,
    Tensor,
    borrow,
    give_back,
    record,
)

NORM_FLOOR = 1e-12
BN_EPS = 1e-12
BN_MOMENTUM = 0.1


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Plain-array rows over max(L2 norm, NORM_FLOOR), off the tape."""
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))
    return x / np.maximum(norms, NORM_FLOOR)


class PrimitiveRule(NamedTuple):
    forward: Callable
    backward: Callable


_RULES: dict[str, PrimitiveRule] = {}


def register(kind: str):
    """Register the (forward, backward) pair returned by the decorated builder."""

    def wrap(builder: Callable) -> PrimitiveRule:
        rule = PrimitiveRule(*builder())
        _RULES[kind] = rule
        return rule

    return wrap


def registered_kinds() -> tuple[str, ...]:
    return tuple(sorted(_RULES))


def apply(kind: str, inputs, **attrs) -> Tensor:
    """Run one primitive and record it on the active tape if needed."""
    rule = _RULES.get(kind)
    if rule is None:
        raise InvalidAttributeError(f"unknown primitive kind {kind!r}")
    for pos, tens in enumerate(inputs):
        if not isinstance(tens, Tensor):
            raise InvalidAttributeError(
                f"{kind}: input {pos} is {type(tens).__name__}, expected Tensor"
            )
        if tens.data.dtype == np.uint8 and (kind, pos) != ("conv2d", 0):
            raise InvalidAttributeError(
                f"{kind}: input {pos} is a uint8 pixel batch, which only conv2d's input 0 reads")
    needs_grad = tuple(t.requires_grad for t in inputs)
    ctx: dict = {"needs_grad": needs_grad}
    arrays = [t.data for t in inputs]
    out_data = rule.forward(ctx, arrays, attrs)
    out = Tensor(out_data, requires_grad=any(needs_grad))
    record(kind, inputs, out, rule.backward, ctx)
    return out


def _require_int(attrs: dict, key: str, kind: str, minimum: int) -> int:
    value = attrs.get(key)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidAttributeError(f"{kind}: attribute {key!r} must be an int")
    value = int(value)
    if value < minimum:
        raise InvalidAttributeError(
            f"{kind}: attribute {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _require_rank(x: np.ndarray, rank: int, layout: str, kind: str) -> None:
    if x.ndim != rank:
        raise ShapeMismatchError(f"{kind}: input must be {layout}, got shape {x.shape}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise: one binary rule serves add, sub and mul, and one pointwise rule
# serves relu, sigmoid, abs and scale


def _binary(kind: str, op, grad_a, grad_b):
    """``op(a, b)`` under numpy broadcasting.  ``grad_a(g, a, b)`` and
    ``grad_b(g, a, b)`` give each input's gradient at the output's shape;
    the backward sums each back down to its input's shape."""

    def forward(ctx, arrays, attrs):
        a, b = arrays
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError as exc:
            raise ShapeMismatchError(
                f"{kind}: shapes {a.shape} and {b.shape} do not broadcast"
            ) from exc
        ctx["a"] = a
        ctx["b"] = b
        return op(a, b)

    def backward(ctx, grad):
        a, b = ctx["a"], ctx["b"]
        return [
            _unbroadcast(grad_a(grad, a, b), a.shape),
            _unbroadcast(grad_b(grad, a, b), b.shape),
        ]

    return forward, backward


def _pointwise(forward_of, backward_of):
    """One-input rule: ``forward_of(x, attrs)`` returns ``(kept, out)`` and
    the input's gradient is ``backward_of(grad, kept)``."""

    def forward(ctx, arrays, attrs):
        (x,) = arrays
        ctx["kept"], out = forward_of(x, attrs)
        return out

    def backward(ctx, grad):
        return [backward_of(grad, ctx["kept"])]

    return forward, backward


def _scale_forward(x, attrs):
    if "factor" not in attrs:
        raise InvalidAttributeError("scale: attribute 'factor' is required")
    factor = attrs["factor"]
    if isinstance(factor, bool) or not isinstance(
        factor, (int, float, np.integer, np.floating)
    ):
        raise InvalidAttributeError("scale: attribute 'factor' must be a number")
    try:
        factor = float(factor)
    except OverflowError:  # an int beyond float range
        raise InvalidAttributeError("scale: attribute 'factor' is too large for a float") from None
    return factor, x * factor


def _relu_forward(x, attrs):
    # NaN stays NaN; out > 0 wherever x > 0 and nowhere else, so keeping the
    # output leaves the input to die with the caller's last reference
    out = np.maximum(x, 0.0)
    return out, out


def _sigmoid_forward(x, attrs):
    out = 0.5 * (np.tanh(0.5 * x) + 1.0)
    return out, out


register("add")(lambda: _binary("add", np.add, lambda g, a, b: g, lambda g, a, b: g))
register("sub")(lambda: _binary("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g))
register("mul")(lambda: _binary("mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a))
register("scale")(lambda: _pointwise(_scale_forward, lambda g, factor: g * factor))
register("relu")(lambda: _pointwise(_relu_forward, lambda g, out: g * (out > 0.0)))
register("sigmoid")(lambda: _pointwise(_sigmoid_forward, lambda g, out: g * out * (1.0 - out)))
# subgradient 0 at exactly zero
register("abs")(lambda: _pointwise(lambda x, attrs: (np.sign(x), np.abs(x)),
                                   lambda g, sign: g * sign))


# ---------------------------------------------------------------------------
# convolution


def _cols(ctx: dict, xp: np.ndarray, kernel, stride: int, shape) -> np.ndarray:
    """The float64 cols ``shape`` of the channels-last padded buffer ``xp``: a
    view of its windows when numpy gives one, else a copy into a ``borrow``
    loan.  A uint8 ``xp`` is read as its values over 255, in the layout, so
    with the matmul rounding, that a float ``xp`` of the quotients gets."""
    windows = sliding_window_view(xp, kernel, axis=(1, 2))[:, ::stride, ::stride]
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    try:
        view = windows.reshape(shape, copy=False)
    except ValueError:
        cols = borrow(ctx, shape)
        if xp.dtype == np.uint8:
            np.divide(windows, 255.0, out=cols.reshape(windows.shape))
        else:
            cols.reshape(windows.shape)[...] = windows
        return cols
    return _cols(ctx, xp / 255.0, kernel, stride, shape) if xp.dtype == np.uint8 else view


@register("conv2d")
def _conv2d():
    # Forward: write the input channels-last once into an uninitialised
    # padded buffer of its dtype whose four border strips alone are zeroed,
    # and make cols [N*Ho*Wo, kh*kw*C_in] from its windows, K ordered
    # (kh, kw, C_in) (``_cols``); one matmul with the weight flattened in the
    # same order.  A uint8 pixel batch's cols go back at once: ctx keeps its
    # uint8 padded buffer instead.
    # Backward: grad_w = g^T cols (cols made again for a pixel batch) and,
    # unless x needs no gradient, each tap's g @ w_tap is added straight into
    # its strided window of a channels-last padded buffer, so no
    # [kh*kw, N*Ho*Wo, C_in] block of input gradients is ever built.
    def forward(ctx, arrays, attrs):
        x, w, b = arrays
        stride = _require_int(attrs, "stride", "conv2d", 1)
        padding = _require_int(attrs, "padding", "conv2d", 0)
        _require_rank(x, 4, "[N, C, H, W]", "conv2d")
        if w.ndim != 4:
            raise ShapeMismatchError(
                f"conv2d: weight must be [C_out, C_in, kh, kw], got {w.shape}"
            )
        n, c_in, height, width = x.shape
        c_out, c_in_w, kh, kw = w.shape
        if c_in != c_in_w:
            raise ShapeMismatchError(
                f"conv2d: input has {c_in} channels, weight expects {c_in_w}"
            )
        if b.shape != (c_out,):
            raise ShapeMismatchError(
                f"conv2d: bias shape {b.shape} must be ({c_out},)"
            )
        h_pad = height + 2 * padding
        w_pad = width + 2 * padding
        if h_pad < kh or w_pad < kw:
            raise ShapeMismatchError(
                f"conv2d: kernel {kh}x{kw} exceeds padded input {h_pad}x{w_pad}"
            )
        h_out = (h_pad - kh) // stride + 1
        w_out = (w_pad - kw) // stride + 1

        xp = np.empty((n, h_pad, w_pad, c_in), dtype=x.dtype)
        xp[:, :padding] = xp[:, padding + height :] = 0
        xp[:, :, :padding] = xp[:, :, padding + width :] = 0
        xp[:, padding : padding + height, padding : padding + width] = x.transpose(0, 2, 3, 1)
        cols = _cols(ctx, xp, (kh, kw), stride, (n * h_out * w_out, kh * kw * c_in))
        w_flat = w.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c_in)
        out = cols @ w_flat.T
        out += b
        if xp.dtype == np.uint8:  # keep the uint8 xp; backward makes cols again
            give_back(ctx)
            cols = xp

        ctx.update(
            cols=cols,
            w_flat=w_flat,
            stride=stride,
            padding=padding,
            x_shape=x.shape,
            xp_shape=xp.shape,
            kernel=(kh, kw),
            out_hw=(h_out, w_out),
        )
        return out.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    def backward(ctx, grad):
        n, c_in, height, width = ctx["x_shape"]
        h_out, w_out = ctx["out_hw"]
        stride = ctx["stride"]
        padding = ctx["padding"]
        w_flat = ctx["w_flat"]
        c_out = w_flat.shape[0]
        kh, kw = ctx["kernel"]

        g = grad.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
        grad_b = g.sum(axis=0)
        cols = ctx["cols"]
        if cols.dtype == np.uint8:  # lent until the node is released
            cols = _cols(ctx, cols, (kh, kw), stride, (n * h_out * w_out, kh * kw * c_in))
        grad_w = (g.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        if not ctx["needs_grad"][0]:
            return [None, grad_w, grad_b]
        taps = w_flat.reshape(c_out, kh, kw, c_in)
        grad_xp = np.zeros(ctx["xp_shape"], dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                grad_xp[
                    :,
                    i : i + stride * (h_out - 1) + 1 : stride,
                    j : j + stride * (w_out - 1) + 1 : stride,
                ] += (g @ taps[:, i, j]).reshape(n, h_out, w_out, c_in)
        grad_x = grad_xp[:, padding : padding + height, padding : padding + width]
        return [grad_x.transpose(0, 3, 1, 2), grad_w, grad_b]

    return forward, backward



# ---------------------------------------------------------------------------
# joins and dense algebra


@register("concat")
def _concat():
    def forward(ctx, arrays, attrs):
        if "axis" not in attrs:
            raise InvalidAttributeError("concat: attribute 'axis' is required")
        if not arrays:
            raise ShapeMismatchError("concat: needs at least one input")
        rank = arrays[0].ndim
        axis = _resolve_axis(attrs["axis"], rank, "concat")
        for pos, arr in enumerate(arrays):
            if arr.ndim != rank:
                raise ShapeMismatchError(
                    f"concat: input {pos} has rank {arr.ndim}, expected {rank}"
                )
            for dim in range(rank):
                if dim != axis and arr.shape[dim] != arrays[0].shape[dim]:
                    raise ShapeMismatchError(
                        f"concat: input {pos} shape {arr.shape} differs from "
                        f"{arrays[0].shape} outside axis {axis}"
                    )
        ctx["axis"] = axis
        ctx["sizes"] = [arr.shape[axis] for arr in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(ctx, grad):
        splits = np.cumsum(ctx["sizes"])[:-1]
        return list(np.split(grad, splits, axis=ctx["axis"]))

    return forward, backward



@register("linear")
def _linear():
    def forward(ctx, arrays, attrs):
        x, w, b = arrays
        if w.ndim != 2:
            raise ShapeMismatchError(f"linear: weight must be 2-d, got {w.shape}")
        d_in, d_out = w.shape
        if b.shape != (d_out,):
            raise ShapeMismatchError(
                f"linear: bias shape {b.shape} must be ({d_out},)"
            )
        _require_rank(x, 2, "[N, D]", "linear")
        if x.shape[1] != d_in:
            raise ShapeMismatchError(
                f"linear: input width {x.shape[1]} does not match weight rows {d_in}"
            )
        ctx["x"] = x
        ctx["w"] = w
        return x @ w + b

    def backward(ctx, grad):
        grad_x = grad @ ctx["w"].T
        grad_w = ctx["x"].T @ grad
        grad_b = grad.sum(axis=0)
        return [grad_x, grad_w, grad_b]

    return forward, backward



# ---------------------------------------------------------------------------
# normalization


@register("batch_norm")
def _batch_norm():
    def forward(ctx, arrays, attrs):
        x, gamma, beta = arrays
        state = attrs.get("state")
        training = attrs.get("training")
        if state is None:
            raise InvalidAttributeError("batch_norm: attribute 'state' is required")
        if not isinstance(training, (bool, np.bool_)):
            raise InvalidAttributeError("batch_norm: attribute 'training' must be a bool")
        _require_rank(x, 2, "[N, D]", "batch_norm")
        dim = x.shape[1]
        for name, arr in (("gamma", gamma), ("beta", beta)):
            if arr.shape != (dim,):
                raise ShapeMismatchError(
                    f"batch_norm: {name} shape {arr.shape} must be ({dim},)"
                )
        if state.running_mean.shape != (dim,) or state.running_var.shape != (dim,):
            raise ShapeMismatchError(
                "batch_norm: running statistics do not match feature width"
            )

        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)  # biased
            state.running_mean[:] = (1.0 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
            state.running_var[:] = (1.0 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
        else:
            mean = state.running_mean
            var = state.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        out = gamma * x_hat + beta

        ctx.update(
            x_hat=x_hat,
            inv_std=inv_std,
            gamma=gamma,
            training=bool(training),
        )
        return out

    def backward(ctx, grad):
        x_hat = ctx["x_hat"]
        inv_std = ctx["inv_std"]
        grad_gamma = (grad * x_hat).sum(axis=0)
        grad_beta = grad.sum(axis=0)
        if ctx["training"]:
            grad_xhat = grad * ctx["gamma"]
            grad_x = (
                grad_xhat
                - grad_xhat.mean(axis=0)
                - x_hat * (grad_xhat * x_hat).mean(axis=0)
            ) * inv_std
        else:
            grad_x = grad * ctx["gamma"] * inv_std
        return [grad_x, grad_gamma, grad_beta]

    return forward, backward



def _resolve_axis(axis, rank: int, kind: str) -> int:
    if not isinstance(axis, (int, np.integer)) or isinstance(axis, bool):
        raise InvalidAttributeError(f"{kind}: attribute 'axis' must be an int")
    axis = int(axis)
    if axis < 0:
        axis += rank
    if not 0 <= axis < rank:
        raise InvalidAttributeError(f"{kind}: axis out of range for rank {rank}")
    return axis


@register("log_softmax")
def _log_softmax():
    def forward(ctx, arrays, attrs):
        (x,) = arrays
        axis = _resolve_axis(attrs.get("axis", -1), x.ndim, "log_softmax")
        shifted = x - x.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        ctx["out"] = out
        ctx["axis"] = axis
        return out

    def backward(ctx, grad):
        axis = ctx["axis"]
        softmax = np.exp(ctx["out"])
        return [grad - softmax * grad.sum(axis=axis, keepdims=True)]

    return forward, backward



@register("l2_normalize")
def _l2_normalize():
    def forward(ctx, arrays, attrs):
        (x,) = arrays
        axis = _resolve_axis(attrs.get("axis", -1), x.ndim, "l2_normalize")
        norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
        denom = np.maximum(norm, NORM_FLOOR)
        out = x / denom
        ctx.update(x=x, axis=axis, norm=norm, denom=denom)
        return out

    def backward(ctx, grad):
        x = ctx["x"]
        axis = ctx["axis"]
        denom = ctx["denom"]
        floored = ctx["norm"] <= NORM_FLOOR
        inner = (grad * x).sum(axis=axis, keepdims=True)
        grad_x = grad / denom - x * inner / denom**3
        if np.any(floored):
            # below the floor the denominator is a constant
            grad_x = np.where(floored, grad / denom, grad_x)
        return [grad_x]

    return forward, backward



# ---------------------------------------------------------------------------
# reductions: one mean rule and one max rule serve all six kinds


def _axis_attr(x: np.ndarray, attrs: dict, kind: str):
    """The ``axis`` attribute of ``mean`` and ``sum``: None (every axis) or one int."""
    axis = attrs.get("axis")
    return None if axis is None else _resolve_axis(axis, x.ndim, kind)


def _pooled(axis):
    """Fixed pooling axes of an [N, C, H, W] input."""

    def axis_of(x: np.ndarray, attrs: dict, kind: str):
        _require_rank(x, 4, "[N, C, H, W]", kind)
        return axis

    return axis_of


def _axes(axis) -> tuple[int, ...]:
    return axis if isinstance(axis, tuple) else (axis,)


def _axis_mean(kind: str, axis_of, *, keepdims: bool = False, divide: bool = True):
    """Mean (or sum) over ``axis_of``'s axes; the gradient spreads evenly."""

    def forward(ctx, arrays, attrs):
        (x,) = arrays
        axis = axis_of(x, attrs, kind)
        ctx["axis"] = axis
        ctx["shape"] = x.shape
        ctx["count"] = x.size if axis is None else math.prod(x.shape[a] for a in _axes(axis))
        reduce = x.mean if divide else x.sum
        return np.asarray(reduce(axis=axis, keepdims=keepdims))

    def backward(ctx, grad):
        if ctx["axis"] is not None and not keepdims:
            grad = np.expand_dims(grad, ctx["axis"])
        scale = 1.0 / ctx["count"] if divide else 1.0
        return [np.broadcast_to(grad * scale, ctx["shape"]).copy()]

    return forward, backward


def _axis_max(kind: str, axis_of, *, keepdims: bool = False):
    """Max over ``axis_of``'s adjacent axes; the whole gradient goes to the
    first maximiser."""

    def forward(ctx, arrays, attrs):
        (x,) = arrays
        axes = _axes(axis_of(x, attrs, kind))
        first, last = axes[0], axes[-1] + 1
        # merge the reduced axes into one; a view when they are one already
        flat = x.reshape(x.shape[:first] + (math.prod(x.shape[first:last]),) + x.shape[last:])
        index = np.expand_dims(flat.argmax(axis=first), first)  # first maximiser on ties
        ctx.update(index=index, axis=first, flat_shape=flat.shape, shape=x.shape)
        out = np.take_along_axis(flat, index, axis=first).squeeze(first)
        return np.expand_dims(out, axes) if keepdims else out

    def backward(ctx, grad):
        index = ctx["index"]
        routed = np.zeros(ctx["flat_shape"], dtype=np.float64)
        np.put_along_axis(routed, index, grad.reshape(index.shape), axis=ctx["axis"])
        return [routed.reshape(ctx["shape"])]

    return forward, backward


register("mean")(lambda: _axis_mean("mean", _axis_attr))
register("sum")(lambda: _axis_mean("sum", _axis_attr, divide=False))
register("channel_avg_pool")(lambda: _axis_mean("channel_avg_pool", _pooled(1), keepdims=True))
register("global_avg_pool")(lambda: _axis_mean("global_avg_pool", _pooled((2, 3))))
register("channel_max_pool")(lambda: _axis_max("channel_max_pool", _pooled(1), keepdims=True))
register("global_max_pool")(lambda: _axis_max("global_max_pool", _pooled((2, 3))))


# ---------------------------------------------------------------------------
# wrappers


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, *, stride: int = 1, padding: int = 0) -> Tensor:
    return apply("conv2d", [x, weight, bias], stride=stride, padding=padding)


def relu(x: Tensor) -> Tensor:
    return apply("relu", [x])


def sigmoid(x: Tensor) -> Tensor:
    return apply("sigmoid", [x])


def add(a: Tensor, b: Tensor) -> Tensor:
    return apply("add", [a, b])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return apply("sub", [a, b])


def mul(a: Tensor, b: Tensor) -> Tensor:
    return apply("mul", [a, b])


def scale(x: Tensor, factor: float) -> Tensor:
    return apply("scale", [x], factor=factor)


def absolute(x: Tensor) -> Tensor:
    return apply("abs", [x])


def channel_max_pool(x: Tensor) -> Tensor:
    return apply("channel_max_pool", [x])


def channel_avg_pool(x: Tensor) -> Tensor:
    return apply("channel_avg_pool", [x])


def concat(parts, axis: int) -> Tensor:
    return apply("concat", list(parts), axis=axis)


def global_avg_pool(x: Tensor) -> Tensor:
    return apply("global_avg_pool", [x])


def global_max_pool(x: Tensor) -> Tensor:
    return apply("global_max_pool", [x])


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return apply("linear", [x, weight, bias])


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, *, state, training: bool) -> Tensor:
    return apply("batch_norm", [x, gamma, beta], state=state, training=training)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply("log_softmax", [x], axis=axis)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    return apply("l2_normalize", [x], axis=axis)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    return apply("mean", [x], axis=axis)


def tensor_sum(x: Tensor, axis: int | None = None) -> Tensor:
    return apply("sum", [x], axis=axis)
