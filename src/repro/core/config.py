"""Model and training configuration.

``ModelConfig.paper()`` reproduces the architecture and hyper-parameters of
Remarks 1 and 2 exactly (64x64 arrays, C64..C512 U-Net, latent and P/E vector
dimension 6, Adam at 2e-4, alpha = 10, beta = 0.01, batch size 2, 7 epochs).
``ModelConfig.small()`` is a scaled-down configuration (16x16 arrays, narrow
channels) used by the tests and benchmarks so that pure-NumPy training
finishes in minutes; the architecture is otherwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ModelConfig"]


def _paper_down_channels() -> tuple[int, ...]:
    return (64, 128, 256, 512, 512, 512)


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the conditional generative models.

    Attributes
    ----------
    array_size:
        Side length of the square PL/VL arrays the model consumes.
    down_channels:
        Output channels of each Down-part layer of the U-Net generator; the
        Up part mirrors it.  Its length must equal ``log2(array_size)`` so the
        innermost feature map is 1x1.
    latent_dim:
        Dimension of the latent vector ``z`` (6 in the paper).
    pe_dim:
        Dimension of the expressive P/E feature vector (6 in the paper).
    encoder_channels:
        Width of the ResNet encoder's residual blocks.
    discriminator_channels:
        Channels of the PatchGAN discriminator layers (C64, C128 then C1).
    learning_rate:
        Adam learning rate (2e-4 in Remark 2).
    adam_betas:
        Adam momentum coefficients.
    alpha:
        Weight of the l2 reconstruction loss in Eq. (1).
    beta:
        Weight of the KL loss in Eq. (1).
    latent_regression_weight:
        Weight of the BicycleGAN latent-recovery term (only used by that
        architecture).
    batch_size:
        Mini-batch size (2 in Remark 2).
    epochs:
        Training length in passes over the dataset (7 in Remark 2): the
        default budget of :meth:`Trainer.train
        <repro.core.trainer.Trainer.train>`, whose ``steps`` overrides it.
    samples_per_array:
        Latent samples drawn per program-level array during evaluation
        (10 in the paper).
    dtype:
        Working precision of the model: ``"float32"`` (default — halves
        memory bandwidth and roughly doubles BLAS throughput on the
        conv-lowered matmuls, with no reproduction-relevant accuracy loss)
        or ``"float64"`` (opt-in, e.g. for numerical-gradient debugging).
        Scalar loss values and gradient norms accumulate in float64 either
        way; see the README "Precision & backends" section for the measured
        float32-vs-float64 deltas.
    """

    array_size: int = 64
    down_channels: tuple[int, ...] = field(default_factory=_paper_down_channels)
    latent_dim: int = 6
    pe_dim: int = 6
    encoder_channels: int = 64
    discriminator_channels: tuple[int, ...] = (64, 128)
    learning_rate: float = 2e-4
    adam_betas: tuple[float, float] = (0.5, 0.999)
    alpha: float = 10.0
    beta: float = 0.01
    latent_regression_weight: float = 0.5
    batch_size: int = 2
    epochs: int = 7
    samples_per_array: int = 10
    dtype: str = "float32"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.array_size < 2 or self.array_size & (self.array_size - 1):
            raise ValueError("array_size must be a power of two >= 2")
        expected_depth = self.array_size.bit_length() - 1
        if len(self.down_channels) != expected_depth:
            raise ValueError(
                f"down_channels must have {expected_depth} entries for "
                f"array_size {self.array_size}, got {len(self.down_channels)}")
        if self.latent_dim < 1 or self.pe_dim < 1:
            raise ValueError("latent_dim and pe_dim must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.samples_per_array < 1:
            raise ValueError("samples_per_array must be positive")

    @property
    def num_down_layers(self) -> int:
        return len(self.down_channels)

    # ------------------------------------------------------------------ #
    # Named configurations
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "ModelConfig":
        """The exact configuration of Remarks 1 and 2."""
        return cls()

    @classmethod
    def small(cls, array_size: int = 16, epochs: int = 2,
              batch_size: int = 8) -> "ModelConfig":
        """Scaled-down configuration for tests and CPU benchmarks."""
        depth = array_size.bit_length() - 1
        widths = tuple(min(8 * 2 ** index, 32) for index in range(depth))
        return cls(array_size=array_size, down_channels=widths,
                   encoder_channels=16, discriminator_channels=(16, 32),
                   batch_size=batch_size, epochs=epochs,
                   samples_per_array=4)

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Minimal configuration for unit tests (8x8 arrays)."""
        return cls(array_size=8, down_channels=(8, 16, 16),
                   encoder_channels=8, discriminator_channels=(8, 16),
                   batch_size=4, epochs=1, samples_per_array=2)
