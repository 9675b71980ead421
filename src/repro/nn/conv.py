"""Convolution and pooling layers.

Conv2d is implemented with im2col: patches are gathered into a matrix so the
convolution becomes one matmul, which is the only way to get acceptable
throughput from numpy.  Input layout is NCHW throughout the library.

Column layout: batch innermost
------------------------------
``im2col`` stages its ``(N, C, H, W)`` input into a zero-padded
``(C, H+2p, W+2p, N)`` buffer and returns columns of shape
``(C*k*k, out_h*out_w*N)``: one row per (channel, kernel offset), the batch
running fastest along each row.  The gather, ``col2im``'s k*k strided
scatter-adds, and the transposes in and out of that layout therefore move
contiguous runs of ``N`` elements (10-256 in training).  A batch-outermost
layout gives runs of 3-4 elements (a kernel row, a channel's taps), on which
numpy's per-inner-loop overhead dominates.  A convolution is then
``W @ cols`` (forward), ``grad @ cols.T`` (weight gradient) and
``col2im(W.T @ grad)`` (input gradient).  Layers return their
``(N, C, H, W)`` output as a transposed view of the ``(C, H, W, N)``
result; elementwise layers keep that memory order, so the next
convolution's staging copy reads its input contiguously.

Every function and pooling layer here acts on the last four axes and carries
any leading axes through, which is how the ``(K, N, C, H, W)`` ensemble
stacks of :mod:`repro.nn.ensemble` share this code slice for slice.

The GEMMs run on numpy's BLAS.  Training endpoints (pool workers, remote
agents) cap it at one thread, since they already run one per core; the
serial engine keeps the BLAS default (see :mod:`repro.utils.blas`).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = [
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


# Reusable zero-padded staging buffers, keyed by (shape, dtype).  A training
# step calls im2col once per conv layer per batch with identical shapes, so
# reusing the allocation avoids a fresh zeroed buffer every call.  Only the
# interior is overwritten; the border is zeroed once at allocation and never
# touched again, which is exactly constant zero padding.  The cap bounds
# memory when many distinct shapes cycle through (e.g. several model
# architectures in one process).
_PAD_SCRATCH: dict[tuple, np.ndarray] = {}
_PAD_SCRATCH_MAX_ENTRIES = 8


def _padded_scratch(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    key = (shape, np.dtype(dtype).str)
    buffer = _PAD_SCRATCH.get(key)
    if buffer is None:
        if len(_PAD_SCRATCH) >= _PAD_SCRATCH_MAX_ENTRIES:
            _PAD_SCRATCH.clear()
        buffer = np.zeros(shape, dtype=dtype)
        _PAD_SCRATCH[key] = buffer
    return buffer


def _batch_first(out: np.ndarray) -> np.ndarray:
    """View a ``(..., C, H, W, N)`` result as ``(..., N, C, H, W)``."""
    return np.moveaxis(out, -1, -4)


def _batch_last_rows(grad: np.ndarray) -> np.ndarray:
    """``(..., N, C, H, W)`` -> ``(..., C, H*W*N)``, the column layout's rows."""
    *lead, batch, channels, height, width = grad.shape
    return np.moveaxis(grad, -4, -1).reshape(*lead, channels, height * width * batch)


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Gather sliding ``kernel x kernel`` patches of ``(..., N, C, H, W)`` ``x``.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(..., C * kernel * kernel, out_h * out_w * N)``.  ``cols`` is always a
    fresh array: callers cache it across forward/backward, and it must not
    alias the reused staging buffer (a 1x1 stride-1 kernel would otherwise
    reshape to a view of it).
    """
    *lead, batch, channels, height, width = x.shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded = _padded_scratch(
        (*lead, channels, height + 2 * padding, width + 2 * padding, batch), x.dtype
    )
    padded[..., padding : padding + height, padding : padding + width, :] = (
        np.moveaxis(x, -4, -1)
    )
    *lead_strides, s_c, s_h, s_w, s_n = padded.strides
    shape = (*lead, channels, kernel, kernel, out_h, out_w, batch)
    patches = np.lib.stride_tricks.as_strided(
        padded,
        shape=shape,
        strides=(*lead_strides, s_c, s_h, s_w, s_h * stride, s_w * stride, s_n),
        writeable=False,
    )
    cols = np.empty(
        (*lead, channels * kernel * kernel, out_h * out_w * batch), dtype=x.dtype
    )
    cols.reshape(shape)[...] = patches
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add columns back into an ``x_shape`` tensor (adjoint of im2col).

    ``x_shape`` is ``(..., N, C, H, W)``; the result is a view of that shape
    over a ``(..., C, H, W, N)`` buffer.
    """
    *lead, batch, channels, height, width = x_shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded = np.zeros(
        (*lead, channels, height + 2 * padding, width + 2 * padding, batch),
        dtype=cols.dtype,
    )
    patches = cols.reshape(*lead, channels, kernel, kernel, out_h, out_w, batch)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                ...,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
                :,
            ] += patches[..., ki, kj, :, :, :]
    return _batch_first(
        padded[..., padding : padding + height, padding : padding + width, :]
    )


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolve ``(..., N, C, H, W)`` input with ``(..., O, C, k, k)`` weights.

    The leading axes of ``x``, ``weight`` and the ``(..., O)`` ``bias`` are
    the same stack (none for a plain layer, ``(K,)`` for an ensemble).
    Returns the ``(..., N, O, oh, ow)`` output (a view of a
    ``(..., O, oh, ow, N)`` array) and the columns that
    :func:`conv2d_backward` needs.
    """
    cols, (out_h, out_w) = im2col(x, weight.shape[-1], stride, padding)
    out = np.matmul(weight.reshape(*weight.shape[:-3], -1), cols)
    if bias is not None:
        out += bias[..., None]
    return _batch_first(out.reshape(*out.shape[:-1], out_h, out_w, x.shape[-4])), cols


def conv2d_backward(
    grad_output: np.ndarray,
    cols: np.ndarray,
    weight: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(weight, bias, input)`` of :func:`conv2d_forward`."""
    grad = _batch_last_rows(grad_output)
    weight_matrix = weight.reshape(*weight.shape[:-3], -1)
    grad_weight = np.matmul(grad, np.swapaxes(cols, -1, -2)).reshape(weight.shape)
    grad_input = col2im(
        np.matmul(np.swapaxes(weight_matrix, -1, -2), grad),
        x_shape,
        weight.shape[-1],
        stride,
        padding,
    )
    return grad_weight, grad.sum(axis=-1), grad_input


class Conv2d(Module):
    """2-D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            ),
            name="weight",
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name="bias") if bias else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        bias = self.bias.data if self.bias is not None else None
        out, self._cols = conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding
        )
        self._x_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad_weight, grad_bias, grad_input = conv2d_backward(
            grad_output,
            self._cols,
            self.weight.data,
            self._x_shape,
            self.stride,
            self.padding,
        )
        self.weight.grad += grad_weight
        if self.bias is not None:
            self.bias.grad += grad_bias
        return grad_input


class MaxPool2d(Module):
    """Max pooling with square window; stride defaults to the window size.

    Acts on the last four ``(N, C, H, W)`` axes; leading axes pass through.
    """

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        *lead, batch, channels, _, _ = x.shape
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, 0)
        windows = cols.reshape(*lead, channels, self.kernel_size**2, -1)
        self._argmax = np.argmax(windows, axis=-2)[..., None, :]
        self._x_shape = x.shape
        out = np.take_along_axis(windows, self._argmax, axis=-2)
        return _batch_first(out.reshape(*lead, channels, out_h, out_w, batch))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad = _batch_last_rows(grad_output)
        window = self.kernel_size**2
        grad_cols = np.zeros(
            grad.shape[:-1] + (window, grad.shape[-1]), dtype=grad_output.dtype
        )
        np.put_along_axis(grad_cols, self._argmax, grad[..., None, :], axis=-2)
        return col2im(
            grad_cols.reshape(*grad.shape[:-2], -1, grad.shape[-1]),
            self._x_shape,
            self.kernel_size,
            self.stride,
            0,
        )


class AvgPool2d(Module):
    """Average pooling with square window; stride defaults to the window.

    Acts on the last four ``(N, C, H, W)`` axes; leading axes pass through.
    """

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        *lead, batch, channels, _, _ = x.shape
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, 0)
        self._x_shape = x.shape
        windows = cols.reshape(*lead, channels, self.kernel_size**2, -1)
        out = windows.mean(axis=-2)
        return _batch_first(out.reshape(*lead, channels, out_h, out_w, batch))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad = _batch_last_rows(grad_output)
        window = self.kernel_size**2
        grad_cols = np.broadcast_to(
            (grad / window)[..., None, :],
            grad.shape[:-1] + (window, grad.shape[-1]),
        )
        return col2im(
            grad_cols.reshape(*grad.shape[:-2], -1, grad.shape[-1]),
            self._x_shape,
            self.kernel_size,
            self.stride,
            0,
        )


class GlobalAvgPool2d(Module):
    """Average each channel over its full spatial extent → (batch, channels).

    Acts on the last two (spatial) axes; leading axes pass through.
    """

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        height, width = self._x_shape[-2:]
        spread = grad_output[..., None, None] / (height * width)
        return np.broadcast_to(spread, self._x_shape).copy()
