"""Neural-network layers built on the autograd Tensor.

The class hierarchy mirrors a small subset of ``torch.nn``: every layer derives
from :class:`Module`, exposes :meth:`Module.parameters` for the optimizers and
``state_dict`` / ``load_state_dict`` for serialization, and distinguishes
training from evaluation mode (relevant for :class:`BatchNorm2d`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.backend import get_backend
from repro.nn.dtypes import get_default_dtype, resolve_dtype
from repro.nn.tensor import Tensor

__all__ = [
    "Module",
    "ModuleList",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "Identity",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "GlobalAvgPool2d",
]


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def register_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        # Preserve the array's own floating dtype (a float32 module keeps
        # float32 running statistics); only non-float data is promoted, to
        # the default dtype rather than a hard-coded float64.
        array = np.asarray(array)
        if array.dtype.kind != "f":
            array = array.astype(get_default_dtype())
        self._buffers[name] = array
        return self._buffers[name]

    def add_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            if not hasattr(self, "_modules"):
                raise RuntimeError("call Module.__init__() before assigning "
                                   "sub-modules")
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Parameter traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix + module_name + ".")

    def parameters(self) -> list[Tensor]:
        return [parameter for _, parameter in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield prefix + name, buffer
        for module_name, module in self._modules.items():
            yield from module.named_buffers(prefix + module_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Precision
    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """The dtype of the module's parameters (default dtype if none)."""
        for _, parameter in self.named_parameters():
            return parameter.data.dtype
        return get_default_dtype()

    def to(self, dtype) -> "Module":
        """Cast all parameters and buffers to ``dtype`` in place.

        Call before creating optimizers: their moment buffers adopt the
        parameter dtype at construction time.
        """
        dtype = resolve_dtype(dtype)
        for module in self.modules():
            for name, parameter in module._parameters.items():
                parameter.data = parameter.data.astype(dtype, copy=False)
                if parameter.grad is not None:
                    parameter.grad = parameter.grad.astype(dtype, copy=False)
            for name, buffer in module._buffers.items():
                module._buffers[name] = np.asarray(buffer).astype(dtype,
                                                                  copy=False)
        return self

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, parameter in self.named_parameters():
            state[name] = parameter.data.copy()
        for name, buffer in self.named_buffers():
            state["buffer:" + name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore parameters and buffers, adopting the stored dtypes.

        A checkpoint round-trips its precision exactly: loading float32
        weights into a float64-initialised module makes the module float32
        (and vice versa) rather than silently casting.  Non-float stored
        values are promoted to the current parameter dtype.
        """
        parameters = dict(self.named_parameters())
        missing = []
        for name, parameter in parameters.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != parameter.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {parameter.data.shape}")
            if value.dtype.kind != "f":
                value = value.astype(parameter.data.dtype)
            parameter.data = value.copy()
        if missing:
            raise KeyError(f"missing parameters in state dict: {missing}")
        self._load_buffers(state, prefix="")

    def _load_buffers(self, state: dict, prefix: str) -> None:
        for name in list(self._buffers):
            key = "buffer:" + prefix + name
            if key in state:
                value = np.asarray(state[key])
                if value.dtype.kind != "f":
                    value = value.astype(self._buffers[name].dtype)
                self._buffers[name] = value.copy()
        for module_name, module in self._modules.items():
            module._load_buffers(state, prefix + module_name + ".")

    # ------------------------------------------------------------------ #
    # Calling convention
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """List container whose entries are registered sub-modules."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class Identity(Module):
    """Pass-through layer."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        weight = init.kaiming_uniform((out_features, in_features), in_features,
                                      rng=rng)
        self.weight = self.register_parameter("weight", Tensor(weight))
        if bias:
            bias_value = init.kaiming_uniform((out_features,), in_features,
                                              rng=rng)
            self.bias = self.register_parameter("bias", Tensor(bias_value))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """Strided 2-D convolution with square kernels."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter(
            "weight", Tensor(init.dcgan_conv_init(shape, rng=rng)))
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor.zeros(out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor, vectors: Tensor | None = None) -> Tensor:
        """Convolve ``x``; ``vectors`` ``(N, d)`` stand for the last ``d``
        input channels, constant over the plane
        (:func:`repro.nn.functional.conv2d`)."""
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, vectors=vectors)


class ConvTranspose2d(Module):
    """Strided 2-D transposed convolution with square kernels."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter(
            "weight", Tensor(init.dcgan_conv_init(shape, rng=rng)))
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor.zeros(out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor, vectors: Tensor | None = None) -> Tensor:
        """Transpose-convolve ``x``; ``vectors`` ``(N, d)`` stand for the
        last ``d`` input channels, constant over the plane
        (:func:`repro.nn.functional.conv_transpose2d`)."""
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding, vectors=vectors)


def _batch_statistics(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance of an NCHW batch.

    Bit-identical to ``x.mean(axis=(0, 2, 3))`` and ``x.var(axis=(0, 2,
    3))`` — the same sums and divisions as NumPy's ``_mean``/``_var`` — but
    the mean's sum is taken once, where ``x.mean`` and ``x.var`` each take
    it.
    """
    count = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
    mean = x.sum(axis=(0, 2, 3), keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    centred = x - mean
    np.multiply(centred, centred, out=centred)
    var = centred.sum(axis=(0, 2, 3))
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean.reshape(-1), var


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        dtype = get_default_dtype()
        self.weight = self.register_parameter("weight",
                                              Tensor.ones(num_features))
        self.bias = self.register_parameter("bias",
                                            Tensor.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features,
                                                      dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features,
                                                    dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects an NCHW tensor")
        if self.training:
            return self._train_forward(x)
        return self._eval_forward(x)

    def affine(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The per-channel ``(scale, shift)`` this layer maps the NCHW array
        ``x`` with, ``y = x * scale + shift``, in its current mode.

        Train mode takes the batch statistics of ``x`` and updates the
        running averages, as a forward does; eval mode reads the running
        statistics.  Graph-free callers apply the map to arrays themselves.
        """
        if self.training:
            return self._batch_affine(x)[:2]
        return self._running_affine()

    def _batch_affine(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Train mode's ``(scale, shift, mean, invstd)`` from the batch
        statistics of ``x``, after updating the running averages."""
        mean, var = _batch_statistics(x)
        momentum = self.momentum
        self._buffers["running_mean"] = (
            (1 - momentum) * self._buffers["running_mean"] + momentum * mean)
        self._buffers["running_var"] = (
            (1 - momentum) * self._buffers["running_var"] + momentum * var)
        invstd = 1.0 / np.sqrt(var + self.eps)
        scale = self.weight.data * invstd
        shift = self.bias.data - mean * scale
        return scale, shift, mean, invstd

    def _running_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode's ``(scale, shift)`` from the running statistics."""
        scale = self.weight.data / np.sqrt(self._buffers["running_var"]
                                           + self.eps)
        shift = self.bias.data - self._buffers["running_mean"] * scale
        return scale, shift

    def _train_forward(self, x: Tensor) -> Tensor:
        """Closed-form train-mode path: one affine map, analytic backward.

        With the batch statistics in hand the normalization folds into a
        single per-channel affine ``y = x * scale + shift``, with the
        textbook closed-form backward in place of the generic autograd
        decomposition (which would materialize five intermediates and
        their gradients).
        """
        x_data = x.data
        scale, shift, mean, invstd = self._batch_affine(x_data)
        channel_shape = (1, -1, 1, 1)
        data = x_data * scale.reshape(channel_shape) \
            + shift.reshape(channel_shape)
        weight, bias = self.weight, self.bias
        out = x._make_child(data, (x, weight, bias), "batchnorm_train")
        if not out.requires_grad:
            return out
        backend = get_backend()
        x_needs = x.requires_grad
        w_needs = weight.requires_grad
        b_needs = bias.requires_grad
        weight_data = weight.data
        m_count = x_data.size // x_data.shape[1]  # N*H*W per channel

        def _backward():
            grad = out.grad
            sum_g, sum_gx = backend.bn_bwd_reductions(grad, x_data, mean,
                                                      invstd)
            if b_needs and bias.requires_grad:
                bias._accumulate(sum_g)
            if w_needs and weight.requires_grad:
                weight._accumulate(sum_gx)
            if x_needs and x.requires_grad:
                inv_m = x_data.dtype.type(1.0 / m_count)
                s1 = weight_data * invstd
                s2 = -(s1 * invstd) * (sum_gx * inv_m)
                s3 = -(s1 * (sum_g * inv_m)) - mean * s2
                x._accumulate_owned(backend.bn_bwd_dx(grad, x_data,
                                                      s1, s2, s3))
        out._backward = _backward
        return out

    def _eval_forward(self, x: Tensor) -> Tensor:
        """Eval mode: the running statistics' affine ``y = x * scale +
        shift`` as one node, the same output with gradients on or off.

        The backward is closed form, with ``x̂ = (x - running_mean) /
        sqrt(running_var + eps)``: ``dx = g * scale``, ``dweight = Σ g·x̂``
        and ``dbias = Σ g`` over the batch and the plane, the two sums
        being the train-mode backward's ``bn_bwd_reductions``.
        """
        x_data = x.data
        scale, shift = self._running_affine()
        channel_shape = (1, -1, 1, 1)
        scale = scale.reshape(channel_shape)
        data = x_data * scale + shift.reshape(channel_shape)
        weight, bias = self.weight, self.bias
        out = x._make_child(data, (x, weight, bias), "batchnorm_eval")
        if not out.requires_grad:
            return out
        backend = get_backend()
        mean = self._buffers["running_mean"]
        invstd = 1.0 / np.sqrt(self._buffers["running_var"] + self.eps)

        def _backward():
            grad = out.grad
            sum_g, sum_gx = backend.bn_bwd_reductions(grad, x_data, mean,
                                                      invstd)
            if bias.requires_grad:
                bias._accumulate(sum_g)
            if weight.requires_grad:
                weight._accumulate(sum_gx)
            if x.requires_grad:
                x._accumulate_owned(grad * scale)
        out._backward = _backward
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions of an NCHW tensor."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
