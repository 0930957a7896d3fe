"""Conditional generative modeling of the flash memory channel.

This package implements the paper's contribution: a conditional VAE-GAN that
learns the analytically intractable likelihood ``P(VL | PL, P/E)`` of the
flash channel, plus the three comparator architectures of Remark 3
(conditional GAN, conditional VAE, BicycleGAN).  All networks are built on the
NumPy framework in :mod:`repro.nn` and condition on the P/E cycle count via
the spatio-temporal feature combination of Section III-B.
"""

from repro.core.config import ModelConfig
from repro.core.pe_encoding import (
    LEVEL_CHANNELS,
    encode_levels,
    pe_feature_vector,
    spatial_replicate,
    concat_condition,
)
from repro.core.encoder import ResNetEncoder, ResidualBlock
from repro.core.generator import UNetGenerator
from repro.core.discriminator import PatchGANDiscriminator
from repro.core.cvae_gan import ConditionalVAEGAN
from repro.core.cgan import ConditionalGAN
from repro.core.cvae import ConditionalVAE
from repro.core.bicycle_gan import BicycleGAN
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.zoo import build_model, MODEL_REGISTRY

__all__ = [
    "ModelConfig",
    "LEVEL_CHANNELS",
    "encode_levels",
    "pe_feature_vector",
    "spatial_replicate",
    "concat_condition",
    "ResNetEncoder",
    "ResidualBlock",
    "UNetGenerator",
    "PatchGANDiscriminator",
    "ConditionalVAEGAN",
    "ConditionalGAN",
    "ConditionalVAE",
    "BicycleGAN",
    "Trainer",
    "TrainingHistory",
    "build_model",
    "MODEL_REGISTRY",
]
