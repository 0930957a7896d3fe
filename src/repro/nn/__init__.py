"""Minimal NumPy deep-learning framework used by the flash channel models.

The package provides a reverse-mode autograd engine (:class:`repro.nn.Tensor`),
the neural-network layers needed by the paper's three modules (ResNet encoder,
U-Net generator, PatchGAN discriminator), optimizers, losses, weight
initialisation and parameter serialization.

The API intentionally mirrors a small subset of PyTorch so the model code in
:mod:`repro.core` reads like the reference implementations the paper builds on
(pix2pix / BicycleGAN), while remaining pure NumPy.

Precision and kernels are policy-driven: :mod:`repro.nn.dtypes` scopes the
default floating dtype (float64 for raw tensors, float32 for the training /
inference pipeline via ``ModelConfig.dtype``), and :mod:`repro.nn.backend`
routes every hot array kernel (conv lowering, BLAS matmuls, fused loss
reductions, in-place optimizer updates) through a swappable backend registry
mirroring ``build_channel`` / ``build_executor``.
"""

from repro.nn import backend
from repro.nn.backend import (
    ArrayBackend,
    build_backend,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.nn.dtypes import (
    default_dtype,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Sequential,
    ModuleList,
    Linear,
    Conv2d,
    ConvTranspose2d,
    BatchNorm2d,
    Identity,
    ReLU,
    LeakyReLU,
    Tanh,
    Sigmoid,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
)
from repro.nn.losses import (
    mse_loss,
    l1_loss,
    bce_loss,
    bce_with_logits_loss,
    gaussian_kl_loss,
    hinge_loss,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.schedulers import (
    CosineAnnealingLR,
    ExponentialLR,
    LinearWarmupLR,
    LRScheduler,
    StepLR,
)
from repro.nn.clipping import clip_grad_norm, clip_grad_value, global_grad_norm
from repro.nn.serialization import save_state_dict, load_state_dict
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "backend",
    "ArrayBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "build_backend",
    "register_backend",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "resolve_dtype",
    "Module",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "Identity",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "mse_loss",
    "l1_loss",
    "bce_loss",
    "bce_with_logits_loss",
    "gaussian_kl_loss",
    "hinge_loss",
    "SGD",
    "Adam",
    "Optimizer",
    "LRScheduler",
    "StepLR",
    "ExponentialLR",
    "CosineAnnealingLR",
    "LinearWarmupLR",
    "clip_grad_norm",
    "clip_grad_value",
    "global_grad_norm",
    "save_state_dict",
    "load_state_dict",
    "init",
]
