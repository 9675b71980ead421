"""Tests for convolution and pooling, including an independent naive oracle."""

import numpy as np
import pytest

from repro import nn
from repro.nn.conv import _PAD_SCRATCH, col2im, im2col
from repro.nn.ensemble import EnsembleConv2d
from tests.gradcheck import check_module_gradients


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference convolution via explicit loops (the oracle)."""
    batch, _, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kernel) // stride + 1
    out_w = (x.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[
                        b, :, i * stride : i * stride + kernel,
                        j * stride : j * stride + kernel,
                    ]
                    out[b, oc, i, j] = np.sum(patch * weight[oc]) + bias[oc]
    return out


def naive_conv2d_grads(x, weight, grad_out, stride, padding):
    """Weight, bias and input gradients via explicit loops (the oracle)."""
    batch, _, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad_x_pad = np.zeros_like(x_pad)
    grad_w = np.zeros_like(weight)
    out_h, out_w = grad_out.shape[2:]
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    rows = slice(i * stride, i * stride + kernel)
                    cols = slice(j * stride, j * stride + kernel)
                    g = grad_out[b, oc, i, j]
                    grad_w[oc] += g * x_pad[b, :, rows, cols]
                    grad_x_pad[b, :, rows, cols] += g * weight[oc]
    grad_b = grad_out.sum(axis=(0, 2, 3))
    grad_x = grad_x_pad[:, :, padding : padding + height, padding : padding + width]
    return grad_w, grad_b, grad_x


def parent_conv2d(x, weight, bias, grad_out, stride, padding):
    """The batch-outermost im2col formulation the layer used before the
    batch-innermost rewrite: rows ``(N*oh*ow, C*k*k)``, ``rows @ W.T``."""
    batch, channels, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    st = x_pad.strides
    patches = np.lib.stride_tricks.as_strided(
        x_pad,
        (batch, channels, out_h, out_w, kernel, kernel),
        (st[0], st[1], st[2] * stride, st[3] * stride, st[2], st[3]),
    )
    rows = patches.transpose(0, 2, 3, 1, 4, 5).reshape(batch * out_h * out_w, -1)
    weight_matrix = weight.reshape(out_channels, -1)
    out = (rows @ weight_matrix.T + bias).reshape(batch, out_h, out_w, -1)
    grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
    grad_w = (grad_rows.T @ rows).reshape(weight.shape)
    grad_b = grad_rows.sum(axis=0)
    grad_patches = (grad_rows @ weight_matrix).reshape(
        batch, out_h, out_w, channels, kernel, kernel
    )
    grad_x_pad = np.zeros_like(x_pad)
    for ki in range(kernel):
        for kj in range(kernel):
            rows = slice(ki, ki + stride * out_h, stride)
            cols = slice(kj, kj + stride * out_w, stride)
            patch = grad_patches[..., ki, kj].transpose(0, 3, 1, 2)
            grad_x_pad[:, :, rows, cols] += patch
    grad_x = grad_x_pad[:, :, padding : padding + height, padding : padding + width]
    return out.transpose(0, 3, 1, 2), grad_w, grad_b, grad_x


def _forward_backward(layer, x, grad_out):
    out = layer.forward(x)
    layer.zero_grad()
    grad_x = layer.backward(grad_out)
    return out, layer.weight.grad.copy(), layer.bias.grad.copy(), grad_x


class TestIm2col:
    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), c> == <x, col2im(c)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, kernel=3, stride=2, padding=1)
        c = rng.normal(size=cols.shape)
        lhs = np.sum(cols * c)
        rhs = np.sum(x * col2im(c, x.shape, kernel=3, stride=2, padding=1))
        np.testing.assert_allclose(lhs, rhs)

    def test_rejects_too_small_input(self, rng):
        with pytest.raises(ValueError, match="non-positive"):
            im2col(rng.normal(size=(1, 1, 2, 2)), kernel=5, stride=1, padding=0)

    def test_batch_innermost_layout(self, rng):
        """Rows are (channel, ki, kj); the batch runs fastest along a row."""
        x = rng.normal(size=(5, 2, 4, 6))
        cols, (out_h, out_w) = im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (2 * 9, out_h * out_w * 5)
        patches = cols.reshape(2, 3, 3, out_h, out_w, 5)
        x_pad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for c, ki, kj, i, j in [(0, 0, 0, 0, 0), (1, 2, 1, 3, 5), (1, 1, 2, 2, 4)]:
            np.testing.assert_array_equal(
                patches[c, ki, kj, i, j], x_pad[:, c, i + ki, j + kj]
            )

    def test_leading_axes_are_carried(self, rng):
        x = rng.normal(size=(3, 4, 2, 5, 5))
        cols, _ = im2col(x, kernel=3, stride=2, padding=1)
        for index in range(3):
            alone, _ = im2col(x[index], kernel=3, stride=2, padding=1)
            assert np.array_equal(cols[index], alone)
        grad = col2im(cols, x.shape, kernel=3, stride=2, padding=1)
        for index in range(3):
            alone = col2im(cols[index], x.shape[1:], kernel=3, stride=2, padding=1)
            assert np.array_equal(grad[index], alone)

    def test_unit_kernel_columns_do_not_alias_the_staging_buffer(self, rng):
        """A 1x1 stride-1 unpadded gather would reshape to a view of the
        reused staging buffer; the columns must be their own memory."""
        x = rng.normal(size=(4, 3, 5, 6))
        cols, _ = im2col(x, kernel=1, stride=1, padding=0)
        for buffer in _PAD_SCRATCH.values():
            assert not np.shares_memory(cols, buffer)
        snapshot = cols.copy()
        im2col(rng.normal(size=x.shape), kernel=1, stride=1, padding=0)
        assert np.array_equal(cols, snapshot)


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding", [(1, 0), (1, 1), (2, 1)], ids=["s1p0", "s1p1", "s2p1"]
    )
    def test_matches_naive_oracle(self, stride, padding, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8))
        expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-10)

    def test_gradients(self, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        check_module_gradients(layer, rng.normal(size=(2, 2, 6, 6)))

    def test_gradients_no_bias(self, rng):
        layer = nn.Conv2d(2, 2, kernel_size=2, stride=1, padding=0, rng=rng, bias=False)
        check_module_gradients(layer, rng.normal(size=(1, 2, 4, 4)))

    def test_rejects_wrong_channels(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_all_gradients_match_naive_oracle(self, kernel, stride, padding, rng):
        """Forward, weight, bias and input gradients on a non-square input."""
        layer = nn.Conv2d(2, 3, kernel, rng, stride=stride, padding=padding)
        layer.bias.data[:] = rng.normal(size=3)
        x = rng.normal(size=(3, 2, 7, 9))
        weight, bias = layer.weight.data, layer.bias.data
        expected_out = naive_conv2d(x, weight, bias, stride, padding)
        grad_out = rng.normal(size=expected_out.shape)
        out, grad_w, grad_b, grad_x = _forward_backward(layer, x, grad_out)
        expected = naive_conv2d_grads(x, layer.weight.data, grad_out, stride, padding)
        np.testing.assert_allclose(out, expected_out, rtol=1e-10, atol=1e-12)
        for got, want in zip((grad_w, grad_b, grad_x), expected):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_unit_kernel_backward_sees_its_own_input(self, rng):
        """1x1, stride 1, no padding: a second layer's forward over a same-
        shape input reuses the staging buffer, and must not change the
        columns the first layer cached for its backward."""
        first = nn.Conv2d(3, 2, kernel_size=1, rng=rng)
        second = nn.Conv2d(3, 2, kernel_size=1, rng=rng)
        x = rng.normal(size=(4, 3, 5, 6))
        grad_out = rng.normal(size=(4, 2, 5, 6))
        first.forward(x)
        second.forward(rng.normal(size=x.shape))
        first.zero_grad()
        first.backward(grad_out)
        grad_w, _, _ = naive_conv2d_grads(x, first.weight.data, grad_out, 1, 0)
        np.testing.assert_allclose(first.weight.grad, grad_w, rtol=1e-10, atol=1e-12)

    def test_output_keeps_batch_innermost_memory_order(self, rng):
        """The output is a transposed view of a (C, H, W, N) array, and ReLU
        keeps that order, so the next conv stages its input contiguously."""
        layer = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = nn.ReLU().forward(layer.forward(rng.normal(size=(6, 3, 8, 8))))
        assert out.shape == (6, 4, 4, 4)
        assert np.moveaxis(out, 0, -1).flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize(
        "channels,out_channels,size,kernel,stride,padding,batch",
        [
            (3, 12, 16, 3, 2, 1, 64),  # the benchmark backbone's first conv
            (12, 24, 8, 3, 2, 1, 64),  # ...and its second
            (12, 24, 8, 3, 2, 1, 14),  # a short last batch
            (4, 5, 9, 5, 1, 2, 7),
            (6, 3, 7, 1, 1, 0, 10),
        ],
    )
    def test_deviation_from_the_batch_outermost_formulation(
        self, channels, out_channels, size, kernel, stride, padding, batch
    ):
        """The column layout changes only the order of sums.  Forward and
        input gradient are the same per-element dot products over C*k*k and
        the same k*k scatter-add order; the weight gradient's GEMM and the
        bias gradient's row sum run over (y, x, b) instead of (b, y, x).
        Measured over 60 random shapes (OpenBLAS): forward and input
        gradient within 1e-15 of the largest magnitude, weight and bias
        gradients within 7e-15.  Pinned at 1e-14 and 5e-14."""
        rng = np.random.default_rng(channels * 100 + kernel * 10 + batch)
        layer = nn.Conv2d(
            channels, out_channels, kernel, rng, stride=stride, padding=padding
        )
        layer.bias.data[:] = rng.normal(size=out_channels)
        x = rng.normal(size=(batch, channels, size, size + 1))
        out = layer.forward(x)
        grad_out = rng.normal(size=out.shape)
        got = _forward_backward(layer, x, grad_out)
        want = parent_conv2d(
            x, layer.weight.data, layer.bias.data, grad_out, stride, padding
        )
        for name, new, old, tolerance in zip(
            ("forward", "weight grad", "bias grad", "input grad"),
            got,
            want,
            (1e-14, 5e-14, 5e-14, 1e-14),
        ):
            deviation = np.max(np.abs(new - old)) / np.max(np.abs(old))
            assert deviation <= tolerance, f"{name}: {deviation:.2e}"


class TestEnsembleConvParity:
    """Slice k of EnsembleConv2d is bitwise the scalar Conv2d on slice k."""

    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("batch", [10, 12, 14, 64])
    @pytest.mark.parametrize(
        "channels,out_channels,size", [(3, 12, 16), (12, 24, 8)]
    )
    def test_slices_are_bitwise_the_scalar_layer(
        self, stack, batch, channels, out_channels, size
    ):
        rng = np.random.default_rng(stack * 1000 + batch)
        templates = [
            nn.Conv2d(channels, out_channels, 3, rng, stride=2, padding=1)
            for _ in range(stack)
        ]
        ensemble = EnsembleConv2d(templates[0], stack)
        for index, template in enumerate(templates):
            template.bias.data[:] = rng.normal(size=out_channels)
            ensemble.weight.data[index] = template.weight.data
            ensemble.bias.data[index] = template.bias.data
        x = rng.normal(size=(stack, batch, channels, size, size))
        out = ensemble.forward(x)
        grad_out = rng.normal(size=out.shape)
        ensemble.zero_grad()
        grad_x = ensemble.backward(grad_out)
        for index, template in enumerate(templates):
            ref = _forward_backward(template, x[index], grad_out[index])
            assert np.array_equal(out[index], ref[0])
            assert np.array_equal(ensemble.weight.grad[index], ref[1])
            assert np.array_equal(ensemble.bias.grad[index], ref[2])
            assert np.array_equal(grad_x[index], ref[3])


class TestPooling:
    def test_maxpool_selects_max(self):
        layer = nn.MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_keeps_float32(self, rng):
        layer = nn.MaxPool2d(2)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = layer.forward(x)
        assert out.dtype == np.float32
        grad = layer.backward(np.ones(out.shape, dtype=np.float32))
        assert grad.dtype == np.float32
        assert grad.sum() == out.size  # one unit of gradient per window max

    def test_overlapping_maxpool_gradients(self, rng):
        x = rng.permutation(2 * 3 * 5 * 5).astype(np.float64).reshape(2, 3, 5, 5)
        check_module_gradients(nn.MaxPool2d(3, stride=2), x)

    def test_pools_carry_leading_axes(self, rng):
        x = rng.normal(size=(3, 2, 4, 6, 6))
        for layer in (nn.MaxPool2d(2), nn.AvgPool2d(3, stride=1), nn.GlobalAvgPool2d()):
            out = layer.forward(x)
            grad = layer.backward(np.ones(out.shape))
            assert grad.shape == x.shape
            for index in range(3):
                assert np.array_equal(out[index], layer.forward(x[index]))

    def test_maxpool_gradients(self, rng):
        # Distinct values avoid FD ambiguity at ties.
        x = rng.permutation(64).astype(np.float64).reshape(1, 4, 4, 4)
        check_module_gradients(nn.MaxPool2d(2), x)

    def test_avgpool_is_mean(self):
        layer = nn.AvgPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradients(self, rng):
        check_module_gradients(nn.AvgPool2d(2), rng.normal(size=(2, 3, 4, 4)))

    def test_global_avgpool(self, rng):
        layer = nn.GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 5, 5))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_global_avgpool_gradients(self, rng):
        check_module_gradients(nn.GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))
