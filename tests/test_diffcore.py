"""Tensor engine tests: forward hand cases, backward vs. finite differences,
tape semantics, and the gradient checker itself.

The finite-difference oracle here is deliberately local to this file so the
product checker is never used to validate its own machinery.
"""

import contextlib
import importlib.util
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from piareid import diffcore as dc


def numeric_grad(func, arrays, which, step=1e-5):
    """Central differences of ``func(arrays) -> float`` w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    out = np.zeros_like(base[which])
    flat = base[which].reshape(-1)
    out_flat = out.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        plus = func(base)
        flat[i] = keep - step
        minus = func(base)
        flat[i] = keep
        out_flat[i] = (plus - minus) / (2 * step)
    return out


def taped_grads(build, tensors):
    for t in tensors:
        t.grad = None
    with dc.Tape() as tape:
        loss = build(tensors)
    dc.backward(loss, tape)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def assert_matches_fd(build_tensor, build_float, arrays, tol=1e-6):
    tensors = [dc.parameter(a) for a in arrays]
    grads = taped_grads(build_tensor, tensors)
    for i in range(len(arrays)):
        numeric = numeric_grad(build_float, arrays, i)
        err = dc.relative_error(grads[i], numeric)
        assert err.max() < tol, f"input {i}: max rel err {err.max()}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# one unbatched sample per primitive that takes a batch: [C,H,W] or [D]
ONE_SAMPLE_INPUTS = {
    "conv2d": ((3, 6, 5), lambda x: dc.conv2d(
        x, dc.tensor(np.zeros((2, 3, 3, 3))), dc.tensor(np.zeros(2)), padding=1)),
    "channel_avg_pool": ((3, 6, 5), dc.channel_avg_pool),
    "channel_max_pool": ((3, 6, 5), dc.channel_max_pool),
    "global_avg_pool": ((3, 6, 5), dc.global_avg_pool),
    "global_max_pool": ((3, 6, 5), dc.global_max_pool),
    "linear": ((3,), lambda x: dc.linear(
        x, dc.tensor(np.zeros((3, 4))), dc.tensor(np.zeros(4)))),
    "batch_norm": ((3,), lambda x: dc.batch_norm(
        x, dc.tensor(np.ones(3)), dc.tensor(np.zeros(3)),
        state=TestBatchNorm.State(3), training=False)),
}


class TestForwardHandCases:
    def test_sigmoid_at_zero(self):
        out = dc.sigmoid(dc.tensor(0.0))
        assert float(out.data) == pytest.approx(0.5, abs=0)

    def test_sigmoid_derivative_at_zero(self):
        x = dc.parameter(0.0)
        with dc.Tape() as tape:
            out = dc.sigmoid(x)
        dc.backward(out, tape)
        assert float(x.grad) == pytest.approx(0.25, abs=1e-15)

    def test_relu_clamps_and_passes(self):
        out = dc.relu(dc.tensor([-2.0, 0.0, 3.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.5])

    def test_relu_gradient_zero_at_kink(self):
        x = dc.parameter(0.0)
        with dc.Tape() as tape:
            loss = dc.relu(x)
        dc.backward(loss, tape)
        assert float(x.grad) == 0.0
        # and below it, down to -0.0 and the smallest negatives
        x = dc.parameter([-3.0, -1e-300, -0.0, 0.0, 1e-300, 2.5])
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.mul(dc.relu(x), dc.constant(np.full(6, 7.0))))
        dc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 7.0, 7.0])

    def test_relu_propagates_nan(self):
        out = dc.relu(dc.tensor([np.nan, -1.0, 2.0])).data
        assert np.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 2.0])

    def test_abs_gradient_is_sign(self):
        x = dc.parameter([-2.0, 0.0, 5.0])
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.absolute(x))
        dc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_log_softmax_uniform(self):
        out = dc.log_softmax(dc.tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, -math.log(4.0), rtol=0, atol=1e-15)

    def test_log_softmax_shift_invariant(self):
        x = np.array([1.0, -2.0, 0.5])
        a = dc.log_softmax(dc.tensor(x)).data
        b = dc.log_softmax(dc.tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_mean_backward_spreads_uniformly(self):
        x = dc.parameter(np.arange(6.0).reshape(2, 3))
        with dc.Tape() as tape:
            loss = dc.mean(x)
        dc.backward(loss, tape)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0), atol=0)

    def test_l2_normalize_unit_result(self, rng):
        x = rng.normal(size=(3, 5))
        out = dc.l2_normalize(dc.tensor(x), axis=1).data
        np.testing.assert_allclose((out**2).sum(axis=1), 1.0, atol=1e-12)

    def test_l2_normalize_zero_vector_floors(self):
        x = dc.parameter(np.zeros(3))
        with dc.Tape() as tape:
            out = dc.l2_normalize(x)
            loss = dc.tensor_sum(out)
        assert np.all(out.data == 0.0)
        dc.backward(loss, tape)
        np.testing.assert_allclose(x.grad, 1e12, rtol=1e-9)

    def test_scale(self):
        out = dc.scale(dc.tensor([1.0, -2.0]), -0.5)
        np.testing.assert_array_equal(out.data, [-0.5, 1.0])

    def test_global_pools_on_constant_map(self):
        x = dc.tensor(np.full((2, 4, 3, 5), 2.5))
        np.testing.assert_allclose(dc.global_avg_pool(x).data, 2.5)
        np.testing.assert_allclose(dc.global_max_pool(x).data, 2.5)

    def test_channel_pools_shapes(self, rng):
        x4 = dc.tensor(rng.normal(size=(2, 6, 4, 3)))
        assert dc.channel_max_pool(x4).shape == (2, 1, 4, 3)
        assert dc.channel_avg_pool(x4).shape == (2, 1, 4, 3)
        x1 = dc.tensor(rng.normal(size=(1, 6, 4, 3)))
        assert dc.channel_max_pool(x1).shape == (1, 1, 4, 3)
        assert dc.channel_avg_pool(x1).shape == (1, 1, 4, 3)

    def test_channel_avg_matches_mean(self, rng):
        x = rng.normal(size=(2, 5, 3, 3))
        out = dc.channel_avg_pool(dc.tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=1, keepdims=True), atol=1e-15)


class TestConv2d:
    @staticmethod
    def conv_oracle(x, w, b, stride, padding):
        """Direct quadruple-loop convolution."""
        n, c_in, h, wd = x.shape
        c_out, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h_out = (h + 2 * padding - kh) // stride + 1
        w_out = (wd + 2 * padding - kw) // stride + 1
        out = np.zeros((n, c_out, h_out, w_out))
        for img in range(n):
            for co in range(c_out):
                for i in range(h_out):
                    for j in range(w_out):
                        patch = xp[
                            img, :, i * stride : i * stride + kh, j * stride : j * stride + kw
                        ]
                        out[img, co, i, j] = (patch * w[co]).sum() + b[co]
        return out

    @pytest.mark.parametrize(
        "shape,cout,k,stride,padding",
        [
            ((1, 1, 4, 4), 1, 3, 1, 0),
            ((2, 3, 6, 5), 4, 3, 1, 1),
            ((2, 2, 7, 6), 3, 3, 2, 1),
            ((1, 3, 8, 4), 2, 1, 1, 0),
            ((3, 1, 5, 5), 2, 5, 1, 2),
            ((1, 2, 9, 7), 2, 3, 3, 2),
        ],
    )
    def test_matches_direct_convolution(self, rng, shape, cout, k, stride, padding):
        x = rng.normal(size=shape)
        w = rng.normal(size=(cout, shape[1], k, k))
        b = rng.normal(size=cout)
        got = dc.conv2d(
            dc.tensor(x), dc.tensor(w), dc.tensor(b), stride=stride, padding=padding
        ).data
        want = self.conv_oracle(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = dc.conv2d(dc.tensor(x), dc.tensor(w), dc.tensor([0.0]), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_small_case_gradient_vs_fd(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 3, 3))
        b = rng.normal(size=1)

        def build(ts):
            out = dc.conv2d(ts[0], ts[1], ts[2], stride=1, padding=0)
            return dc.tensor_sum(dc.mul(out, out))

        def as_float(arrs):
            out = self.conv_oracle(arrs[0], arrs[1], arrs[2], 1, 0)
            return float((out**2).sum())

        assert_matches_fd(build, as_float, [x, w, b])

    @given(
        h=st.integers(3, 10),
        w=st.integers(3, 10),
        k=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_shape_formula(self, h, w, k, stride, padding):
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        x = dc.tensor(np.zeros((1, 1, h, w)))
        wt = dc.tensor(np.zeros((1, 1, k, k)))
        out = dc.conv2d(x, wt, dc.tensor([0.0]), stride=stride, padding=padding)
        assert out.shape == (
            1,
            1,
            (h + 2 * padding - k) // stride + 1,
            (w + 2 * padding - k) // stride + 1,
        )


def conv_loop_grads(x, w, grad, stride, padding):
    """(grad_x, grad_w, grad_b) of ``sum(conv2d(x, w, b) * grad)``, one tap at a time."""
    n, c_in, h, wd = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for i in range(grad.shape[2]):
        for j in range(grad.shape[3]):
            for a in range(kh):
                for c in range(kw):
                    r, q = i * stride + a, j * stride + c
                    for img in range(n):
                        g = grad[img, :, i, j]
                        grad_w[:, :, a, c] += np.outer(g, xp[img, :, r, q])
                        grad_xp[img, :, r, q] += g @ w[:, :, a, c]
    grad_x = grad_xp[:, :, padding : padding + h, padding : padding + wd]
    return grad_x, grad_w, grad.sum(axis=(0, 2, 3))


def assert_rel_close(got, want, rel=1e-12):
    """max |got - want| within ``rel`` of max |want|."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


class TestConv2dAgainstLoops:
    @given(
        n=st.integers(1, 4), c_in=st.integers(1, 4), c_out=st.integers(1, 4),
        k=st.sampled_from([1, 3, 7]), stride=st.sampled_from([1, 2, 4]),
        padding=st.integers(0, 3), extra_h=st.integers(0, 6), extra_w=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    # kernel equal to the padded input; sizes the stride does not divide
    @example(n=2, c_in=3, c_out=2, k=7, stride=1, padding=1, extra_h=0, extra_w=0, seed=1)
    @example(n=1, c_in=2, c_out=3, k=3, stride=4, padding=0, extra_h=6, extra_w=3, seed=2)
    @example(n=3, c_in=1, c_out=1, k=7, stride=2, padding=3, extra_h=4, extra_w=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_forward_and_gradients_match(self, n, c_in, c_out, k, stride, padding,
                                         extra_h, extra_w, seed):
        # the smallest size the kernel fits in, plus the drawn extra rows/columns
        h = max(1, k - 2 * padding) + extra_h
        wd = max(1, k - 2 * padding) + extra_w
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c_in, h, wd))
        w = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        params = [dc.parameter(x), dc.parameter(w), dc.parameter(b)]
        with dc.Tape() as tape:
            out = dc.conv2d(*params, stride=stride, padding=padding)
            upstream = rng.normal(size=out.shape)
            loss = dc.tensor_sum(dc.mul(out, dc.constant(upstream)))
        dc.backward(loss, tape)

        assert_rel_close(out.data, TestConv2d.conv_oracle(x, w, b, stride, padding))
        for param, want in zip(params, conv_loop_grads(x, w, upstream, stride, padding)):
            assert_rel_close(param.grad, want)


    def test_constant_input_gets_no_gradient(self):
        # a constant x, like the pixel batch: the rule returns None for it,
        # and grad_w and grad_b equal those of a run where x needs a gradient
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        upstream = rng.normal(size=(2, 4, 5, 4))
        returned = []
        for x_tensor in (dc.constant(x), dc.parameter(x)):
            with dc.Tape() as tape:
                dc.conv2d(x_tensor, dc.parameter(w), dc.parameter(b),
                          stride=2, padding=1)
            (node,) = tape.nodes
            returned.append(node.backward_fn(node.ctx, upstream))
        (none, grad_w, grad_b), (grad_x, want_w, want_b) = returned
        assert none is None and grad_x.shape == x.shape
        assert np.array_equal(grad_w, want_w) and np.array_equal(grad_b, want_b)


def reference_conv2d(x, w, b, grad, stride, padding):
    """(out, grad_x, grad_w, grad_b) by the earlier im2col rule: ``np.pad`` for
    the padded input and one [kh*kw, N*Ho*Wo, C_in] block of tap gradients."""
    n, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    pad = (padding, padding)
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), pad, pad, (0, 0)))
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * h_out * w_out, kh * kw * c_in)
    w_flat = w.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c_in)
    out = cols @ w_flat.T
    out += b
    out = out.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    g = grad.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
    grad_b = g.sum(axis=0)
    grad_w = (g.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    taps = w_flat.reshape(c_out, kh * kw, c_in).transpose(1, 0, 2)
    grad_cols = np.matmul(g, taps).reshape(kh, kw, n, h_out, w_out, c_in)
    grad_xp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            grad_xp[
                :,
                i : i + stride * (h_out - 1) + 1 : stride,
                j : j + stride * (w_out - 1) + 1 : stride,
            ] += grad_cols[i, j]
    grad_x = grad_xp[:, padding : padding + height, padding : padding + width]
    return out, grad_x.transpose(0, 3, 1, 2), grad_w, grad_b


class TestConv2dBitsMatchReference:
    """The padded buffer and the per-tap input gradient change no bit of the
    earlier rule's results, bar one input layout (see the test body)."""

    @given(
        n=st.integers(1, 3), c_in=st.integers(1, 32), c_out=st.integers(1, 32),
        k=st.integers(1, 7), stride=st.integers(1, 4), padding=st.integers(0, 3),
        extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
        channels_last=st.booleans(), seed=st.integers(0, 2**16),
    )
    # the model's attention conv: two channels in, one out, 7x7, padding 3
    @example(n=1, c_in=2, c_out=1, k=7, stride=1, padding=3, extra_h=1, extra_w=0,
             channels_last=True, seed=0)
    # one image of one row: np.pad kept the reference's buffer Fortran-ordered
    @example(n=1, c_in=2, c_out=1, k=1, stride=1, padding=0, extra_h=0, extra_w=1,
             channels_last=False, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_forward_and_gradients_are_bit_equal(self, n, c_in, c_out, k, stride, padding,
                                                 extra_h, extra_w, channels_last, seed):
        h = max(1, k - 2 * padding) + extra_h
        wd = max(1, k - 2 * padding) + extra_w
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c_in, h, wd))
        if channels_last:  # how every conv after the first sees its input
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        params = [dc.parameter(x), dc.parameter(w), dc.parameter(b)]
        with dc.Tape() as tape:
            out = dc.conv2d(*params, stride=stride, padding=padding)
        upstream = rng.normal(size=out.shape)
        (node,) = tape.nodes
        got = [out.data, *node.backward_fn(node.ctx, upstream)]
        # np.pad lays out a Fortran-ordered input in Fortran order, and the
        # channels-last view of an [N, C, H, W] input is one when N = H = 1
        # (and W, C > 1).  The reference's matmuls then read other strides
        # and may round otherwise; the rule's buffer is always C-ordered.
        exact = not x.transpose(0, 2, 3, 1).flags.fnc
        for name, have, want in zip(("out", "grad_x", "grad_w", "grad_b"), got,
                                    reference_conv2d(x, w, b, upstream, stride, padding)):
            assert have.shape == want.shape, name
            if exact:
                assert np.array_equal(have, want), name
            else:
                assert_rel_close(have, want)


class TestConv2dPixels:
    """A uint8 pixel batch through conv2d gives the bits of its float64
    quotients by 255, and its node keeps only uint8 of it for backward."""

    @given(
        n=st.integers(1, 4), c_in=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 9),
        k=st.sampled_from((1, 3, 7)), stride=st.sampled_from((1, 2, 4)),
        padding=st.integers(0, 3), seed=st.integers(0, 2**16),
    )
    # conv0 at the default architecture: a 64x32 crop, 3x3, stride 4, padding 1
    @example(n=4, c_in=3, h=64, w=32, k=3, stride=4, padding=1, seed=0)
    # one channel, 1x1, stride 2: cols is a strided view of the padded input,
    # whose matmul rounds otherwise than a contiguous copy's
    @example(n=2, c_in=1, h=8, w=2, k=1, stride=2, padding=0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_bits_equal_the_float_quotients(self, n, c_in, h, w, k, stride, padding, seed):
        assume(min(h, w) + 2 * padding >= k)
        rng = np.random.default_rng(seed)
        rasters = rng.integers(0, 256, (n, c_in, h, w), dtype=np.uint8)
        weight = dc.parameter(rng.normal(size=(3, c_in, k, k)))
        bias = dc.parameter(rng.normal(size=3))
        h_out, w_out = ((side + 2 * padding - k) // stride + 1 for side in (h, w))
        upstream = dc.constant(rng.normal(size=(n, 3, h_out, w_out)))

        def run(x, workspace):
            weight.grad = bias.grad = None
            with workspace or contextlib.nullcontext(), dc.Tape() as tape:
                out = dc.conv2d(x, weight, bias, stride=stride, padding=padding)
                ctx = dict(tape.nodes[0].ctx)
                loss = dc.tensor_sum(dc.mul(out, upstream))
                dc.backward(loss, tape)
            return ctx, [out.data, weight.grad, bias.grad]

        for workspace in (None, dc.Workspace()):
            ctx, got = run(dc.pixels(rasters), workspace)
            _, want = run(dc.constant(rasters / 255.0), workspace)
            for name, have, expected in zip(("out", "grad_w", "grad_b"), got, want):
                assert have.tobytes() == expected.tobytes(), name
            assert ctx["cols"].dtype == np.uint8 and "borrowed" not in ctx
            # the flattened weight is the one float64 array the node keeps
            assert [key for key, value in ctx.items() if isinstance(value, np.ndarray)
                    and value.dtype == np.float64] == ["w_flat"]


class TestPixelGuards:
    @pytest.mark.parametrize("kind", dc.registered_kinds())
    @pytest.mark.parametrize("pos", range(3))
    def test_only_conv2d_input_0_reads_pixels(self, kind, pos):
        inputs = [dc.constant(np.zeros((1, 1, 1, 1))) for _ in range(3)]
        inputs[pos] = dc.pixels(np.zeros((1, 1, 1, 1), dtype=np.uint8))
        if (kind, pos) == ("conv2d", 0):
            inputs[2] = dc.constant(np.zeros(1))
            out = dc.apply(kind, inputs, stride=1, padding=0)
            assert out.data.dtype == np.float64
            return
        with pytest.raises(dc.InvalidAttributeError, match=f"^{kind}: input {pos} is a uint8"):
            dc.apply(kind, inputs)

    @pytest.mark.parametrize("array", [
        np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2, 2), dtype=np.int16),
        np.zeros((3, 2, 2), dtype=np.uint8),
    ], ids=["float64", "int16", "3-d"])
    def test_pixels_refuses_other_arrays(self, array):
        with pytest.raises(dc.InvalidAttributeError, match="uint8 \\[N, C, H, W\\]"):
            dc.pixels(array)

    def test_pixels_wraps_without_a_copy(self):
        rasters = np.zeros((2, 4, 3, 3), dtype=np.uint8).transpose(0, 3, 1, 2)
        x = dc.pixels(rasters)
        assert x.data is rasters and not x.requires_grad


class TestConv2dBackwardMemory:
    def test_no_block_of_tap_gradients(self):
        # conv2's shape at a batch of 8: the earlier rule held a 2.4 MB
        # [9, N*Ho*Wo, C_in] block of tap gradients at once (3.4 MB peak); a
        # per-tap sum needs the padded gradient, the channels-last upstream
        # and a tap or two in flight (1.3 MB)
        rng = np.random.default_rng(3)
        n, c_in, c_out, size = 8, 16, 32, 16
        x = dc.parameter(rng.normal(size=(n, c_in, size, size)))
        w = dc.parameter(rng.normal(size=(c_out, c_in, 3, 3)))
        b = dc.parameter(rng.normal(size=c_out))
        with dc.Tape() as tape:
            out = dc.conv2d(x, w, b, stride=1, padding=1)
        upstream = rng.normal(size=out.shape)
        (node,) = tape.nodes
        rows = n * size * size
        padded = n * (size + 2) ** 2 * c_in * 8
        bound = padded + rows * c_out * 8 + 3 * rows * c_in * 8 + 64 * 1024
        block = 9 * rows * c_in * 8
        tracemalloc.start()
        try:
            node.backward_fn(node.ctx, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound < block, (peak, bound)


def _reference_unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def reference_elementwise(kind, arrays, grad, factor):
    """(out, *input gradients) by the earlier rules, one builder per kind."""
    if kind in ("add", "sub", "mul"):
        a, b = arrays
        if kind == "add":
            return (np.add(a, b), _reference_unbroadcast(grad, a.shape),
                    _reference_unbroadcast(grad, b.shape))
        if kind == "sub":
            return (np.subtract(a, b), _reference_unbroadcast(grad, a.shape),
                    _reference_unbroadcast(-grad, b.shape))
        return (np.multiply(a, b), _reference_unbroadcast(grad * b, a.shape),
                _reference_unbroadcast(grad * a, b.shape))
    (x,) = arrays
    if kind == "scale":
        factor = float(factor)
        return x * factor, grad * factor
    if kind == "relu":
        return np.maximum(x, 0.0), grad * (x > 0.0)
    if kind == "sigmoid":
        out = 0.5 * (np.tanh(0.5 * x) + 1.0)
        return out, grad * out * (1.0 - out)
    sign = np.sign(x)
    return np.abs(x), grad * sign


_ELEMENTWISE = {
    "add": dc.add, "sub": dc.sub, "mul": dc.mul,
    "scale": dc.scale, "relu": dc.relu, "sigmoid": dc.sigmoid, "abs": dc.absolute,
}
# signed zeros, the relu/abs kink, infinities and NaN, beside ordinary and
# extreme finite values
_EW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(-8.0, 8.0),
    st.floats(),
)


@st.composite
def _elementwise_cases(draw):
    """(kind, input arrays, upstream gradient, scale factor); the binary
    kinds' operands broadcast in either direction, 0-d ones included."""
    kind = draw(st.sampled_from(sorted(_ELEMENTWISE)))
    shapes, out_shape = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, min_dims=0, max_dims=3, max_side=3))
    if kind not in ("add", "sub", "mul"):
        shapes = shapes[:1]
        out_shape = shapes[0]
    arrays = [draw(hnp.arrays(np.float64, shape, elements=_EW_VALUES)) for shape in shapes]
    upstream = draw(hnp.arrays(np.float64, out_shape, elements=_EW_VALUES))
    factor = draw(st.one_of(st.integers(-2**40, 2**40), st.integers(-9, 9).map(np.int64),
                            st.floats()))
    return kind, arrays, upstream, factor


class TestElementwiseBitsMatchReference:
    """The binary and pointwise rules change no bit of the earlier per-kind
    rules' results: compared by bytes, so signed zeros and NaNs count."""

    @given(_elementwise_cases())
    # a 0-d operand broadcast into a vector, and a +0 upstream that sub's
    # second gradient negates into -0
    @example(("sub", [np.array(1.5), np.array([1.5, 2.0])], np.zeros(2), 1))
    @settings(max_examples=300, deadline=None)
    def test_forward_and_gradients_are_byte_equal(self, case):
        kind, arrays, upstream, factor = case
        params = [dc.parameter(arr) for arr in arrays]
        extra = (factor,) if kind == "scale" else ()
        with np.errstate(all="ignore"):
            with dc.Tape() as tape:
                out = _ELEMENTWISE[kind](*params, *extra)
            (node,) = tape.nodes
            got = [out.data, *node.backward_fn(node.ctx, upstream)]
            want = reference_elementwise(kind, arrays, upstream, factor)
        assert len(got) == len(want)
        for have, expect in zip(got, want):
            have, expect = np.asarray(have), np.asarray(expect)
            assert have.shape == expect.shape and have.dtype == expect.dtype
            assert have.tobytes() == expect.tobytes()


class TestBackwardVsFiniteDifferences:
    """Every differentiable primitive against the local FD oracle."""

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 1e-2] = 0.5

        def build(ts):
            return dc.tensor_sum(dc.mul(dc.relu(ts[0]), dc.constant(x + 2.0)))

        def as_float(arrs):
            return float((np.maximum(arrs[0], 0.0) * (x + 2.0)).sum())

        assert_matches_fd(build, as_float, [x])

    def test_sigmoid(self, rng):
        x = rng.normal(size=(3, 4))

        def build(ts):
            return dc.mean(dc.sigmoid(ts[0]))

        def as_float(arrs):
            return float((1.0 / (1.0 + np.exp(-arrs[0]))).mean())

        assert_matches_fd(build, as_float, [x])

    def test_log_softmax(self, rng):
        x = rng.normal(size=(4, 6))
        pick = np.eye(6)[rng.integers(0, 6, size=4)]

        def build(ts):
            lp = dc.log_softmax(ts[0], axis=1)
            return dc.tensor_sum(dc.mul(lp, dc.constant(pick)))

        def as_float(arrs):
            z = arrs[0] - arrs[0].max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float((lp * pick).sum())

        assert_matches_fd(build, as_float, [x])

    def test_l2_normalize(self, rng):
        x = rng.normal(size=(3, 5)) + 0.5
        r = rng.normal(size=(3, 5))

        def build(ts):
            return dc.tensor_sum(dc.mul(dc.l2_normalize(ts[0], axis=1), dc.constant(r)))

        def as_float(arrs):
            n = np.sqrt((arrs[0] ** 2).sum(axis=1, keepdims=True))
            return float((arrs[0] / np.maximum(n, 1e-12) * r).sum())

        assert_matches_fd(build, as_float, [x])

    def test_linear(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        r = rng.normal(size=(4, 5))

        def build(ts):
            return dc.tensor_sum(dc.mul(dc.linear(ts[0], ts[1], ts[2]), dc.constant(r)))

        def as_float(arrs):
            return float(((arrs[0] @ arrs[1] + arrs[2]) * r).sum())

        assert_matches_fd(build, as_float, [x, w, b])

    def test_concat_and_reductions(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 4))
        r = rng.normal(size=(2, 7))

        def build(ts):
            joined = dc.concat([ts[0], ts[1]], axis=1)
            return dc.tensor_sum(dc.mul(joined, dc.constant(r)))

        def as_float(arrs):
            return float((np.concatenate(arrs, axis=1) * r).sum())

        assert_matches_fd(build, as_float, [a, b])

    def test_mean_with_axis(self, rng):
        x = rng.normal(size=(3, 4))
        r = rng.normal(size=4)

        def build(ts):
            return dc.tensor_sum(dc.mul(dc.mean(ts[0], axis=0), dc.constant(r)))

        def as_float(arrs):
            return float((arrs[0].mean(axis=0) * r).sum())

        assert_matches_fd(build, as_float, [x])

    def test_global_and_channel_pools(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        # break ties so FD stays smooth around max selections
        x += np.linspace(0, 1e-3, x.size).reshape(x.shape)
        r = rng.normal(size=(2, 3))
        r2 = rng.normal(size=(2, 1, 4, 5))

        def build(ts):
            top = dc.tensor_sum(dc.mul(dc.global_max_pool(ts[0]), dc.constant(r)))
            avg = dc.tensor_sum(dc.mul(dc.global_avg_pool(ts[0]), dc.constant(r)))
            cmx = dc.tensor_sum(dc.mul(dc.channel_max_pool(ts[0]), dc.constant(r2)))
            cav = dc.tensor_sum(dc.mul(dc.channel_avg_pool(ts[0]), dc.constant(r2)))
            return dc.add(dc.add(top, avg), dc.add(cmx, cav))

        def as_float(arrs):
            x_ = arrs[0]
            return float(
                (x_.max(axis=(2, 3)) * r).sum()
                + (x_.mean(axis=(2, 3)) * r).sum()
                + (x_.max(axis=1, keepdims=True) * r2).sum()
                + (x_.mean(axis=1, keepdims=True) * r2).sum()
            )

        assert_matches_fd(build, as_float, [x])

    def test_elementwise_with_broadcast(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        c = rng.normal(size=())

        def build(ts):
            out = dc.mul(dc.add(ts[0], ts[1]), dc.sub(ts[0], ts[2]))
            return dc.mean(out)

        def as_float(arrs):
            return float(((arrs[0] + arrs[1]) * (arrs[0] - arrs[2])).mean())

        assert_matches_fd(build, as_float, [a, b, c])

    def test_abs_away_from_zero(self, rng):
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 1e-2] = 0.7

        def build(ts):
            return dc.mean(dc.absolute(ts[0]))

        def as_float(arrs):
            return float(np.abs(arrs[0]).mean())

        assert_matches_fd(build, as_float, [x])


class TestTieBreaking:
    def test_channel_max_routes_to_lowest_index(self):
        x = dc.parameter(np.ones((1, 3, 2, 2)))
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.channel_max_pool(x))
        dc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad[0, 0], np.ones((2, 2)))
        np.testing.assert_array_equal(x.grad[0, 1:], 0.0)

    def test_global_max_routes_to_lowest_flat_index(self):
        x = dc.parameter(np.full((1, 2, 2, 3), 7.0))
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.global_max_pool(x))
        dc.backward(loss, tape)
        expect = np.zeros((1, 2, 2, 3))
        expect[0, :, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expect)


class TestBatchNorm:
    class State:
        def __init__(self, dim):
            self.running_mean = np.zeros(dim)
            self.running_var = np.ones(dim)

    def test_training_output_is_standardized(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(16, 5))
        state = self.State(5)
        gamma = dc.tensor(np.ones(5))
        beta = dc.tensor(np.zeros(5))
        out = dc.batch_norm(dc.tensor(x), gamma, beta, state=state, training=True).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-9)

    def test_running_stats_update_rate(self, rng):
        x = rng.normal(size=(8, 3))
        state = self.State(3)
        state.running_mean[:] = 1.0
        state.running_var[:] = 2.0
        dc.batch_norm(
            dc.tensor(x), dc.tensor(np.ones(3)), dc.tensor(np.zeros(3)),
            state=state, training=True,
        )
        np.testing.assert_allclose(
            state.running_mean, 0.9 * 1.0 + 0.1 * x.mean(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            state.running_var, 0.9 * 2.0 + 0.1 * x.var(axis=0), atol=1e-12
        )

    def test_eval_uses_running_stats_and_keeps_them(self, rng):
        x = rng.normal(size=(4, 3))
        state = self.State(3)
        state.running_mean[:] = 0.5
        state.running_var[:] = 4.0
        before = (state.running_mean.copy(), state.running_var.copy())
        out = dc.batch_norm(
            dc.tensor(x), dc.tensor(np.ones(3)), dc.tensor(np.zeros(3)),
            state=state, training=False,
        ).data
        np.testing.assert_allclose(out, (x - 0.5) / np.sqrt(4.0 + 1e-12), atol=1e-12)
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    def test_training_gradients_vs_fd(self, rng):
        x = rng.normal(size=(6, 3))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        r = rng.normal(size=(6, 3))
        state = self.State(3)

        def build(ts):
            out = dc.batch_norm(ts[0], ts[1], ts[2], state=state, training=True)
            return dc.tensor_sum(dc.mul(out, dc.constant(r)))

        def as_float(arrs):
            mu = arrs[0].mean(axis=0)
            var = arrs[0].var(axis=0)
            xh = (arrs[0] - mu) / np.sqrt(var + 1e-12)
            return float(((arrs[1] * xh + arrs[2]) * r).sum())

        assert_matches_fd(build, as_float, [x, gamma, beta])


class TestTapeSemantics:
    def test_no_tape_no_recording(self):
        x = dc.parameter([1.0, 2.0])
        out = dc.mul(x, x)
        assert out.requires_grad
        assert dc.current_tape() is None

    def test_constant_only_graph_records_nothing(self):
        with dc.Tape() as tape:
            dc.mul(dc.constant([1.0]), dc.constant([2.0]))
        assert len(tape) == 0

    def test_fan_out_accumulates(self):
        x = dc.parameter(3.0)
        with dc.Tape() as tape:
            loss = dc.add(dc.mul(x, x), dc.scale(x, 4.0))
        dc.backward(loss, tape)
        assert float(x.grad) == pytest.approx(2 * 3.0 + 4.0)

    def test_same_tensor_twice_in_one_node(self):
        x = dc.parameter([2.0, -1.0])
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.mul(x, x))
        dc.backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_grad_accumulates_across_tapes(self):
        x = dc.parameter(2.0)
        for _ in range(2):
            with dc.Tape() as tape:
                loss = dc.mul(x, x)
            dc.backward(loss, tape)
        assert float(x.grad) == pytest.approx(8.0)

    def test_backward_requires_scalar(self):
        x = dc.parameter([1.0, 2.0])
        with dc.Tape() as tape:
            out = dc.mul(x, x)
        with pytest.raises(dc.TapeError):
            dc.backward(out, tape)

    def test_backward_of_a_leaf_that_the_tape_also_read(self):
        # d x / d x is 1, however many recorded nodes read x
        x = dc.parameter(3.0)
        with dc.Tape() as tape:
            dc.mul(x, x)
        dc.backward(x, tape)
        assert float(x.grad) == 1.0

    def test_tape_single_use(self):
        x = dc.parameter(1.5)
        with dc.Tape() as tape:
            loss = dc.mul(x, x)
        dc.backward(loss, tape)
        with pytest.raises(dc.TapeError):
            dc.backward(loss, tape)

    def test_unused_branch_contributes_nothing(self):
        x = dc.parameter([1.0, 2.0])
        y = dc.parameter([3.0, 4.0])
        with dc.Tape() as tape:
            dc.mul(y, y)  # recorded but not part of the loss
            loss = dc.tensor_sum(x)
        dc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        assert y.grad is None

    def test_second_tape_raises_and_the_first_still_records(self):
        x = dc.parameter(2.0)
        with dc.Tape() as outer:
            dc.mul(x, x)
            with pytest.raises(dc.TapeError, match="already active"):
                with dc.Tape():
                    pass
            assert dc.current_tape() is outer
            loss = dc.scale(x, 3.0)
        assert dc.current_tape() is None
        assert len(outer) == 2
        dc.backward(loss, outer)
        assert float(x.grad) == 3.0

    def test_interior_tensors_keep_no_grad(self):
        x = dc.parameter([1.0, 2.0])
        with dc.Tape() as tape:
            mid = dc.mul(x, x)
            loss = dc.tensor_sum(mid)
        dc.backward(loss, tape)
        assert mid.grad is None


class TestBackwardReleasesTheTape:
    def test_nodes_keep_nothing_and_constants_are_not_pinned(self, rng):
        pixels = rng.normal(size=(2, 3, 6, 5))
        held = weakref.ref(pixels)
        w = dc.parameter(rng.normal(size=(4, 3, 3, 3)))
        b = dc.parameter(rng.normal(size=4))
        with dc.Tape() as tape:
            loss = dc.tensor_sum(dc.relu(dc.conv2d(dc.constant(pixels), w, b, padding=1)))
        count = len(tape)
        dc.backward(loss, tape)
        assert len(tape) == count == 3
        assert all(n.ctx is None and n.inputs is None and n.output is None
                   for n in tape.nodes)
        assert [n.kind for n in tape.nodes] == ["conv2d", "relu", "sum"]
        with pytest.raises(dc.TapeError):
            dc.backward(loss, tape)
        del pixels
        assert held() is None  # the tape no longer holds the batch
        assert w.grad is not None and b.grad is not None


class TestTapeKeepsOnlyWhatBackwardReads:
    def test_conv_outputs_are_collectable_before_backward(self, rng):
        # each conv output feeds only a relu, which keeps its own output, and
        # the next conv keeps its cols: no node holds the conv outputs
        x = dc.constant(rng.normal(size=(2, 3, 8, 6)))
        w0, b0 = dc.parameter(rng.normal(size=(4, 3, 3, 3))), dc.parameter(rng.normal(size=4))
        w1, b1 = dc.parameter(rng.normal(size=(5, 4, 3, 3))), dc.parameter(rng.normal(size=5))
        conv_arrays = []
        with dc.Tape() as tape:
            h = dc.conv2d(x, w0, b0, padding=1)
            conv_arrays += [weakref.ref(h.data), weakref.ref(_owner(h.data))]
            h = dc.conv2d(dc.relu(h), w1, b1, padding=1)
            conv_arrays += [weakref.ref(h.data), weakref.ref(_owner(h.data))]
            loss = dc.tensor_sum(dc.relu(h))
        del h
        assert [ref() is None for ref in conv_arrays] == [True] * 4
        # one entry per input, in order: a node's index, else the tensor
        assert [n.kind for n in tape.nodes] == ["conv2d", "relu", "conv2d", "relu", "sum"]
        assert tape.nodes[0].inputs == (x, w0, b0)
        assert tape.nodes[2].inputs == (1, w1, b1)
        assert [n.output for n in tape.nodes] == [0, 1, 2, 3, 4]
        dc.backward(loss, tape)
        assert all(t.grad is not None for t in (w0, b0, w1, b1))

    def test_a_dead_intermediate_lends_its_id_to_a_later_constant(self):
        # each scale's input dies as soon as scale has run, and CPython may
        # put a later constant at its address; gradients must not notice
        factors = np.random.default_rng(6).normal(size=(40, 3))
        w = dc.parameter([0.5, -1.5, 2.0])

        def grads(keep: bool):
            w.grad = None
            kept, died, constants = [], set(), set()
            with dc.Tape() as tape:
                total = dc.tensor_sum(w)
                for factor in factors:
                    const = dc.constant(factor)
                    constants.add(id(const))
                    mid = dc.mul(w, const)
                    died.add(id(mid))
                    if keep:
                        kept += [const, mid]
                    total = dc.add(total, dc.tensor_sum(dc.scale(mid, 3.0)))
                    del const, mid
            dc.backward(total, tape)
            return w.grad, died & constants

        kept_grad, shared = grads(keep=True)
        assert not shared
        grad, shared = grads(keep=False)
        assert shared  # some constant did take a dead intermediate's id
        assert grad.tobytes() == kept_grad.tobytes()
        np.testing.assert_allclose(grad, 1.0 + 3.0 * factors.sum(axis=0))

    def test_a_result_of_another_tape_is_a_leaf_there(self):
        x = dc.parameter([1.0, 2.0])
        with dc.Tape() as first:
            y = dc.tensor_sum(dc.mul(x, x))
        with dc.Tape() as second:
            loss = dc.scale(y, 3.0)
        assert second.nodes[0].inputs == (y,)
        dc.backward(loss, second)
        assert float(y.grad) == 3.0 and x.grad is None
        dc.backward(y, first)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert float(y.grad) == 3.0


class _Ledger(dc.Workspace):
    """A workspace that logs every buffer it lends and gets back."""

    def __init__(self):
        super().__init__()
        self.taken, self.given = [], []

    def take(self, shape):
        buffer = super().take(shape)
        self.taken.append(buffer)
        return buffer

    def give(self, buffer):
        self.given.append(buffer)
        super().give(buffer)


def _owner(view):
    """The array that owns ``view``'s memory."""
    return view if view.base is None else view.base


def _same(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestWorkspace:
    """Conv ``cols`` buffers come from the active workspace and go back as
    backward releases their node; bits match a run without one."""

    def _two_convs(self, rng_seed=4):
        rng = np.random.default_rng(rng_seed)
        x = dc.parameter(rng.normal(size=(2, 3, 6, 5)))
        params = [dc.parameter(rng.normal(size=s)) for s in ((4, 3, 3, 3), (4,)) * 2]
        return x, params

    def _step(self, x, params):
        for t in (x, *params):
            t.grad = None
        with dc.Tape() as tape:
            a = dc.conv2d(x, params[0], params[1], padding=1)
            c = dc.conv2d(x, params[2], params[3], padding=1)  # same cols shape
            loss = dc.tensor_sum(dc.mul(a, c))
        cols = [node.ctx["cols"] for node in tape.nodes if node.kind == "conv2d"]
        dc.backward(loss, tape)
        return [a.data, c.data, *(t.grad for t in (x, *params))], cols

    def test_no_buffer_lent_twice_within_one_tape(self):
        x, params = self._two_convs()
        reference, _ = self._step(x, params)
        with _Ledger() as ledger:
            first, cols = self._step(x, params)
            assert len(ledger.taken) == 2 and _same(cols, ledger.taken)
            assert not np.shares_memory(cols[0], cols[1])
            assert _same(ledger.given, cols[::-1])  # released in reverse order
            ledger.taken.clear()
            second, again = self._step(x, params)
        assert {id(c) for c in again} == {id(c) for c in cols}  # no new allocation
        for have, want in zip(first + second, reference * 2):
            assert np.array_equal(have, want)

    def test_tapeless_conv_returns_its_buffer_before_the_call_ends(self):
        x, params = self._two_convs()
        with _Ledger() as ledger:
            out = dc.conv2d(x, params[0], params[1], padding=1)
            assert len(ledger.taken) == 1 and _same(ledger.given, ledger.taken)
            assert ledger.take(ledger.taken[0].shape) is ledger.taken[0]
        want = dc.conv2d(x, params[0], params[1], padding=1)
        assert np.array_equal(out.data, want.data)

    def test_cols_stays_a_view_when_numpy_gives_one(self):
        # the first @example of TestConv2dBitsMatchReference: its windows
        # reshape to a strided view of the padded input, whose matmul rounds
        # otherwise than a contiguous copy's
        rng = np.random.default_rng(0)
        x = dc.constant(rng.normal(size=(1, 2, 2, 1)))
        w, b = dc.parameter(rng.normal(size=(1, 2, 7, 7))), dc.parameter(rng.normal(size=1))
        with _Ledger() as ledger, dc.Tape() as tape:
            dc.conv2d(x, w, b, padding=3)
        assert ledger.taken == [] and not tape.nodes[0].ctx["cols"].flags.owndata

    def test_entering_and_leaving(self):
        with pytest.raises(RuntimeError, match="inside"):
            with dc.Workspace() as workspace:
                assert dc.current_workspace() is workspace
                lent = workspace.take((2, 3))
                workspace.give(lent)
                with pytest.raises(dc.TapeError, match="already active"):
                    with dc.Workspace():
                        pass
                assert dc.current_workspace() is workspace
                raise RuntimeError("inside")
        assert dc.current_workspace() is None
        # leaving dropped the idle buffer
        assert not np.shares_memory(workspace.take((2, 3)), lent)

    def test_take_lends_the_smallest_idle_buffer_that_holds_the_shape(self):
        workspace = dc.Workspace()
        small, large = workspace.take((2, 3)), workspace.take((4, 5))
        workspace.give(large)
        workspace.give(small)
        loan = workspace.take((5,))
        assert loan.shape == (5,) and _owner(loan) is small
        assert _owner(workspace.take((3, 4))) is large
        workspace.give(loan)
        # no idle buffer holds 7 values: the too-small one goes
        fresh = workspace.take((7,))
        assert not np.shares_memory(fresh, small)
        workspace.give(fresh)
        assert _owner(workspace.take((6,))) is _owner(fresh)

    @given(st.lists(st.tuples(
        st.booleans(),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        st.integers(0, 2**16),
    ), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_outstanding_loans_never_share_memory(self, calls):
        workspace, out = dc.Workspace(), []
        for give, shape, pick in calls:
            if give and out:
                workspace.give(out.pop(pick % len(out)))
                continue
            loan = workspace.take(shape)
            assert loan.shape == shape and loan.dtype == np.float64
            assert loan.flags.c_contiguous
            assert not any(np.shares_memory(loan, other) for other in out)
            out.append(loan)


class TestWorkspaceInTrainAndEval:
    """By-size lending across a training step and an extraction."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        from piareid import synthbench

        # 4 test identities of 8 images per modality: two 32-image batches
        return synthbench.generate_dataset(synthbench.GenConfig(
            n_identities=8, images_per_identity_per_modality=8, image_height=16,
            image_width=8, split_ratio="1:1", seed=2,
        ), tmp_path_factory.mktemp("workspace_data"))

    def test_extraction_after_a_train_step_allocates_nothing(self, manifest):
        from piareid import evalkit, trainer

        cfg = trainer.TrainConfig(
            epochs=2, stage2_start_epoch=2, ids_per_batch=4, instances_per_modality=8,
            eval_every=0, image_height=16, image_width=8, widths=(4, 4),
            strides=(2, 1), attention_kernel_size=3,
        )
        run = trainer.TrainRun(manifest, cfg)
        with _Ledger() as ledger:
            run.epoch(manifest)  # one step only: no probe or eval in epoch 0
            # conv0's cols for its forward matmul, given back at once, then
            # conv1's and the attention's, and conv0's again for grad_w
            assert len(ledger.taken) == 4
            assert ledger.given[0] is ledger.taken[0]
            assert ledger.taken[3].shape == ledger.taken[0].shape
            idle = [_owner(b) for b in ledger._idle]
            ledger.taken.clear()
            evalkit.test_feature_table(manifest, run.state)
            assert len(ledger.taken) == 6  # two batches of three convs
            assert all(any(_owner(b) is held for held in idle) for b in ledger.taken)

    def test_eval_alone_keeps_one_buffer_sized_for_the_largest_cols(self, manifest):
        from piareid import evalkit, model

        state = model.build_model(model.ModelConfig(
            image_height=16, image_width=8, widths=(4, 4), strides=(2, 1),
            attention_kernel_size=3, num_identities=4, num_clothing_classes=8,
        ))
        with _Ledger() as ledger:
            evalkit.test_feature_table(manifest, state)
            sizes = [b.size for b in ledger.taken]
            assert len(set(sizes)) == 3  # conv0's, conv1's and the attention's
            assert len(ledger._idle) == 1
            assert _owner(ledger._idle[0]).size == max(sizes)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(dc.InvalidAttributeError):
            dc.apply("nonesuch", [dc.tensor(1.0)])

    def test_conv_channel_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError, match="channels"):
            dc.conv2d(
                dc.tensor(np.zeros((1, 2, 4, 4))),
                dc.tensor(np.zeros((1, 3, 3, 3))),
                dc.tensor(np.zeros(1)),
                stride=1, padding=0,
            )

    def test_conv_kernel_exceeds_input(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.conv2d(
                dc.tensor(np.zeros((1, 1, 2, 2))),
                dc.tensor(np.zeros((1, 1, 5, 5))),
                dc.tensor(np.zeros(1)),
                stride=1, padding=0,
            )

    def test_conv_bad_stride(self):
        with pytest.raises(dc.InvalidAttributeError):
            dc.conv2d(
                dc.tensor(np.zeros((1, 1, 4, 4))),
                dc.tensor(np.zeros((1, 1, 3, 3))),
                dc.tensor(np.zeros(1)),
                stride=0, padding=0,
            )

    def test_scale_needs_numeric_factor(self):
        with pytest.raises(dc.InvalidAttributeError):
            dc.apply("scale", [dc.tensor(1.0)], factor="two")
        with pytest.raises(dc.InvalidAttributeError):
            dc.apply("scale", [dc.tensor(1.0)])

    @pytest.mark.parametrize("factor", [10**400, -(10**309)], ids=["1e400", "-1e309"])
    def test_scale_factor_beyond_float_range(self, factor):
        for call in (lambda: dc.scale(dc.tensor(1.0), factor),
                     lambda: dc.apply("scale", [dc.tensor(1.0)], factor=factor)):
            with pytest.raises(dc.InvalidAttributeError, match="'factor'"):
                call()
        # the largest ints a float holds still scale as before
        assert dc.scale(dc.tensor(1.0), 10**308).data == 1e308

    def test_add_incompatible_shapes(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.add(dc.tensor(np.zeros(3)), dc.tensor(np.zeros(4)))

    def test_concat_needs_matching_dims(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.concat([dc.tensor(np.zeros((2, 3))), dc.tensor(np.zeros((3, 3)))], axis=1)

    def test_concat_axis_out_of_range(self):
        with pytest.raises(dc.InvalidAttributeError):
            dc.concat([dc.tensor(np.zeros((2, 3)))], axis=5)

    def test_linear_width_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.linear(dc.tensor(np.zeros((2, 3))), dc.tensor(np.zeros((4, 5))),
                      dc.tensor(np.zeros(5)))

    def test_batch_norm_requires_state(self):
        with pytest.raises(dc.InvalidAttributeError):
            dc.apply(
                "batch_norm",
                [dc.tensor(np.zeros((2, 3))), dc.tensor(np.ones(3)), dc.tensor(np.zeros(3))],
                training=True,
            )

    @pytest.mark.parametrize("kind", sorted(ONE_SAMPLE_INPUTS))
    def test_rank_check(self, kind):
        shape, call = ONE_SAMPLE_INPUTS[kind]
        with pytest.raises(dc.ShapeMismatchError):
            call(dc.tensor(np.zeros(shape)))


class TestChecker:
    def test_passes_on_smooth_closure(self, rng):
        a = dc.parameter(rng.normal(size=(3, 4)))
        w = dc.parameter(rng.normal(size=(4, 2)))

        def build(params):
            out = dc.linear(params[0], params[1], dc.constant(np.zeros(2)))
            return dc.mean(dc.mul(out, out))

        report = dc.check_gradients(build, [a, w], names=["a", "w"])
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_detects_untaped_dependency(self, rng):
        x = dc.parameter(rng.normal(size=5) + 2.0)

        def build(params):
            # second factor bypasses the tape, so the analytic side misses it
            return dc.mean(dc.mul(params[0], dc.constant(params[0].data)))

        report = dc.check_gradients(build, [x])
        assert not report.passed

    def test_ignored_parameter_gets_zeros_on_both_sides(self, rng):
        used = dc.parameter(rng.normal(size=3))
        unused = dc.parameter(rng.normal(size=4))

        def build(params):
            return dc.mean(dc.mul(params[0], params[0]))

        report = dc.check_gradients(build, [used, unused], names=["used", "unused"])
        assert report.passed
        assert report.entries[1].max_rel_error == 0.0

    def test_rejects_nondeterministic_closure(self):
        x = dc.parameter([1.0])
        calls = {"n": 0}

        def build(params):
            calls["n"] += 1
            return dc.mean(dc.scale(params[0], float(calls["n"])))

        with pytest.raises(dc.NonDeterministicClosureError):
            dc.check_gradients(build, [x])

    def test_reports_per_parameter_entries(self, rng):
        x = dc.parameter(rng.normal(size=(2, 2)))
        report = dc.check_gradients(
            lambda ps: dc.mean(dc.mul(ps[0], ps[0])), [x], names=["x"]
        )
        assert [e.name for e in report.entries] == ["x"]
        assert report.entries[0].worst_index


class TestHypothesisInvariants:
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_l2_normalize_rows_never_exceed_unit(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.choice([1e-14, 1.0, 1e6])
        out = dc.l2_normalize(dc.tensor(x), axis=1).data
        norms = np.sqrt((out**2).sum(axis=1))
        assert np.all(norms <= 1.0 + 1e-9)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_log_softmax_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 7)) * 10
        out = dc.log_softmax(dc.tensor(x), axis=1).data
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_concat_split_round_trip(self, seed, parts):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(2, rng.integers(1, 4))) for _ in range(parts)]
        joined = dc.concat([dc.tensor(b) for b in blocks], axis=1).data
        np.testing.assert_array_equal(joined, np.concatenate(blocks, axis=1))


# ---------------------------------------------------------------------------
# the six reduction kinds against plain-numpy oracles

REDUCTION_KINDS = ("mean", "sum", "channel_avg_pool", "global_avg_pool",
                   "channel_max_pool", "global_max_pool")


def _load_perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_every_traced_kind_is_registered():
    # perfbench keys its per-layer metrics by kind name; a kind missing
    # from the registry would read 0 there instead of failing
    traced = set(_load_perfbench_workloads().PRIMITIVE_KINDS) | {"conv2d"}
    assert traced <= set(dc.registered_kinds())
    assert set(REDUCTION_KINDS) <= traced


def _oracle_max(x, axes, keepdims):
    """Forward and a routing of ``grad`` to each slice's first maximiser, by loops."""
    moved = np.moveaxis(x, axes, range(x.ndim - len(axes), x.ndim))
    kept_shape = moved.shape[: x.ndim - len(axes)]
    out = np.empty(kept_shape)
    first = {}
    for idx in np.ndindex(kept_shape):
        block = moved[idx]
        flat_pos = int(np.flatnonzero(block.reshape(-1) == block.max())[0])
        out[idx] = block.reshape(-1)[flat_pos]
        first[idx] = np.unravel_index(flat_pos, block.shape)
    if keepdims:
        out = np.expand_dims(out, axes)

    def backward(grad):
        routed = np.zeros(moved.shape)
        g = grad.reshape(kept_shape)
        for idx, pos in first.items():
            routed[idx + pos] = g[idx]
        return np.moveaxis(routed, range(x.ndim - len(axes), x.ndim), axes)

    return out, backward


def _oracle(kind, x, axis):
    """(forward, gradient of sum(forward * grad)) in plain numpy."""
    if kind in ("channel_max_pool", "global_max_pool"):
        axes = (1,) if kind == "channel_max_pool" else (2, 3)
        return _oracle_max(x, axes, keepdims=kind == "channel_max_pool")
    if kind in ("channel_avg_pool", "global_avg_pool"):
        axes = (1,) if kind == "channel_avg_pool" else (2, 3)
        out = x.mean(axis=axes, keepdims=kind == "channel_avg_pool")
    elif axis is None:
        axes = tuple(range(x.ndim))
        out = x.mean() if kind == "mean" else x.sum()
    else:
        axes = (axis,)
        out = x.mean(axis=axis) if kind == "mean" else x.sum(axis=axis)
    count = math.prod(x.shape[a] for a in axes)
    scale = 1.0 if kind == "sum" else 1.0 / count

    def backward(grad):
        expanded = np.reshape(grad, [1 if a in axes else s for a, s in enumerate(x.shape)])
        return np.broadcast_to(expanded * scale, x.shape)

    return out, backward


_REDUCE = {
    "mean": dc.mean,
    "sum": dc.tensor_sum,
    "channel_avg_pool": lambda x, axis: dc.channel_avg_pool(x),
    "global_avg_pool": lambda x, axis: dc.global_avg_pool(x),
    "channel_max_pool": lambda x, axis: dc.channel_max_pool(x),
    "global_max_pool": lambda x, axis: dc.global_max_pool(x),
}


class TestReductionRules:
    @given(
        st.sampled_from(REDUCTION_KINDS),
        st.lists(st.integers(1, 4), min_size=4, max_size=4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_forward_and_gradient_equal_the_oracle(self, kind, shape, seed, ties, data):
        rng = np.random.default_rng(seed)
        axis = None
        if kind in ("mean", "sum"):
            shape = shape[: data.draw(st.integers(1, 4), label="rank")]
            axis = data.draw(st.sampled_from([None, *range(len(shape))]), label="axis")
        # small integers make ties common, so first-maximiser routing is exercised
        x = rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
        param = dc.parameter(x)
        want_out, want_backward = _oracle(kind, x, axis)
        with dc.Tape() as tape:
            out = _REDUCE[kind](param, axis=axis)
            grad = rng.normal(size=out.shape)
            loss = dc.tensor_sum(dc.mul(out, dc.constant(grad)))
        dc.backward(loss, tape)
        assert out.shape == np.shape(want_out)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(param.grad, want_backward(grad))

    @pytest.mark.parametrize("kind", ["mean", "sum"])
    @pytest.mark.parametrize("axis", [True, 2, -3, 1.0])
    def test_rejects_unusable_axis(self, kind, axis):
        with pytest.raises(dc.InvalidAttributeError):
            dc.apply(kind, [dc.tensor(np.zeros((2, 3)))], axis=axis)
