"""Minimal NumPy deep-learning framework used by the flash channel models.

The package provides a reverse-mode autograd engine (:class:`repro.nn.Tensor`)
and exactly what the paper's three modules (ResNet encoder, U-Net generator,
PatchGAN discriminator) are built and trained from: convolution, transposed
convolution, BatchNorm, (Leaky)ReLU and Tanh layers, the cVAE-GAN losses,
Adam at a fixed learning rate, weight initialisation and parameter
serialization.

The API intentionally mirrors a small subset of PyTorch so the model code in
:mod:`repro.core` reads like the reference implementations the paper builds on
(pix2pix / BicycleGAN), while remaining pure NumPy.

Precision and kernels are policy-driven and scoped: :func:`default_dtype`
scopes the default floating dtype (float64 for raw tensors, float32 for the
training / inference pipeline via ``ModelConfig.dtype``), and
:func:`use_backend` scopes the array backend of :mod:`repro.nn.backend`,
which routes every hot array kernel (conv lowering, BLAS matmuls,
leaky-ReLU, the BatchNorm backward, in-place Adam updates) through a
swappable registry mirroring ``build_channel`` / ``build_executor``.  Loss
values are plain NumPy reductions outside the backend, so they read the
same bits on every backend.  Both modes, like :func:`no_grad`, are per
thread.
"""

from repro.nn import backend
from repro.nn.backend import (
    ArrayBackend,
    build_backend,
    get_backend,
    register_backend,
    use_backend,
)
from repro.nn.dtypes import default_dtype, get_default_dtype, resolve_dtype
from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.layers import (
    Module,
    ModuleList,
    Linear,
    Conv2d,
    ConvTranspose2d,
    BatchNorm2d,
    Identity,
    ReLU,
    LeakyReLU,
    Tanh,
    GlobalAvgPool2d,
)
from repro.nn.losses import (
    mse_loss,
    l1_loss,
    bce_with_logits_loss,
    gaussian_kl_loss,
)
from repro.nn.optim import Adam
from repro.nn.serialization import save_state_dict, load_state_dict
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "backend",
    "ArrayBackend",
    "get_backend",
    "use_backend",
    "build_backend",
    "register_backend",
    "default_dtype",
    "get_default_dtype",
    "resolve_dtype",
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
    "mse_loss",
    "l1_loss",
    "bce_with_logits_loss",
    "gaussian_kl_loss",
    "Adam",
    "save_state_dict",
    "load_state_dict",
    "init",
]
