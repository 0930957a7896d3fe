"""The U-Net generator's two routes: the graph-free one against the Tensor one.

:meth:`UNetGenerator.forward_data` runs every generator forward that builds
no graph (sampling, the discriminator step's fakes) on plain arrays; the
per-layer Tensor route, :meth:`UNetGenerator.forward_tensors`, builds the
training graph and is the reference here.  The two must agree bit for bit,
BatchNorm running averages included, on both array backends and in both
precisions.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel import GenerativeChannel
from repro.core import ModelConfig, UNetGenerator, build_model, encode_levels
from repro.core.trainer import Trainer
from repro.flash.cell import NUM_LEVELS
from repro.nn import Tensor, no_grad
from repro.nn.backend import use_backend
from repro.nn.cjit import cjit_available
from repro.nn.tensor import is_grad_enabled

ARCHITECTURES = ["cvae_gan", "cgan", "cvae", "bicycle_gan"]

BACKENDS = ["numpy", pytest.param("cjit", marks=pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH"))]


def _model(architecture, dtype="float32", condition_on_pe=True):
    config = dataclasses.replace(ModelConfig.tiny(), dtype=dtype)
    return build_model(architecture, config, rng=np.random.default_rng(11),
                       condition_on_pe=condition_on_pe)


def _inputs(model, batch=5, seed=12):
    rng = np.random.default_rng(seed)
    size = model.config.array_size
    levels = encode_levels(rng.integers(0, NUM_LEVELS, (batch, size, size)),
                           model.dtype)
    latent = rng.standard_normal((batch, model.config.latent_dim))
    return levels, rng.uniform(0.2, 1.0, batch), latent.astype(model.dtype)


def _backend(name, cjit_backend):
    return use_backend(cjit_backend if name == "cjit" else name)


def _assert_buffers_equal(first, second):
    pairs = list(zip(first.named_buffers(), second.named_buffers()))
    assert pairs
    for (name, got), (other, want) in pairs:
        assert name == other
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_graph_free_route_matches_the_tensor_route(architecture, dtype,
                                                   backend_name,
                                                   cjit_backend):
    """Under ``no_grad``: eval and train mode (twice, so the running
    averages feed back), with and without P/E conditioning, through
    ``forward`` and ``forward_data`` alike."""
    with _backend(backend_name, cjit_backend):
        for condition_on_pe in (True, False):
            for training in (False, True):
                graph_free = _model(architecture, dtype, condition_on_pe)
                reference = _model(architecture, dtype, condition_on_pe)
                graph_free.train(training)
                reference.train(training)
                levels, pe, latent = _inputs(graph_free)
                for _ in range(2):
                    with no_grad():
                        want = reference.generator.forward_tensors(
                            Tensor(levels), pe, Tensor(latent)).data
                        got = graph_free.generator(
                            Tensor(levels), pe, Tensor(latent)).data
                    np.testing.assert_array_equal(got, want)
                    assert got.dtype == want.dtype == np.dtype(dtype)
                _assert_buffers_equal(graph_free, reference)
                if not training:
                    np.testing.assert_array_equal(
                        graph_free.generator.forward_data(levels, pe, latent),
                        want)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_two_training_steps_match_through_either_route(
        architecture, backend_name, cjit_backend, monkeypatch, tiny_dataset):
    """The discriminator step's fakes go through the graph-free route; two
    steps give the weights and buffers the Tensor route gives."""
    batches = [tiny_dataset[0:4], tiny_dataset[4:8]]
    states = []
    with _backend(backend_name, cjit_backend):
        for route in ("graph_free", "tensor"):
            model = _model(architecture)
            trainer = Trainer(model, tiny_dataset,
                              rng=np.random.default_rng(13))
            with monkeypatch.context() as patch:
                if route == "tensor":
                    patch.setattr(UNetGenerator, "forward",
                                  UNetGenerator.forward_tensors)
                for levels, voltages, pe_cycles in batches:
                    trainer.train_step(levels, voltages, pe_cycles)
            states.append(model.state_dict())
    assert states[0].keys() == states[1].keys()
    for key in states[0]:
        np.testing.assert_array_equal(states[0][key], states[1][key])


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_no_generator_forward_without_a_graph_builds_tensors(
        architecture, monkeypatch, tiny_dataset):
    """No per-op Tensor on the no-graph paths: a ``no_grad`` generator
    forward, ``sample`` in either mode and channel reads make no graph
    node, and a train step runs the Tensor route only with gradients on."""
    model = _model(architecture)
    levels, pe, latent = _inputs(model)
    program = np.random.default_rng(14).integers(0, NUM_LEVELS, (2, 16, 16))
    nodes = []
    make_child = Tensor._make_child

    def counted(self, data, parents, op):
        nodes.append(op)
        return make_child(self, data, parents, op)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_make_child", counted)
        with no_grad():
            model.generator(Tensor(levels), pe, Tensor(latent))
        for training in (True, False):
            model.train(training)
            model.sample(program[:, :8, :8], np.full(2, 0.5),
                         np.random.default_rng(15))
        channel = GenerativeChannel(model, rng=np.random.default_rng(16))
        channel.read_voltages(program, 7000)
        channel.read_repeated(program, 7000, 2)
    assert nodes == []
    forward_tensors = UNetGenerator.forward_tensors

    def graph_only(self, *args):
        assert is_grad_enabled(), "a no-graph forward took the Tensor route"
        return forward_tensors(self, *args)

    monkeypatch.setattr(UNetGenerator, "forward_tensors", graph_only)
    trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(17))
    trainer.train_step(*tiny_dataset[0:4])


def _forward_data(generator, levels, pe, latent):
    return generator.forward_data(levels, pe, latent)


def _forward_no_grad(generator, levels, pe, latent):
    with no_grad():
        return generator(Tensor(levels), pe, Tensor(latent))


def _forward_tensors(generator, levels, pe, latent):
    return generator(Tensor(levels), pe, Tensor(latent))


ROUTES = [_forward_data, _forward_no_grad, _forward_tensors]


class TestTypedErrors:
    """Bad shapes are one ValueError on every route."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("shape", [(5, 5), (4, 6), (5,), (5, 6, 1)])
    def test_latent_of_the_wrong_shape(self, route, shape):
        model = _model("cvae_gan")
        levels, pe, _ = _inputs(model)
        with pytest.raises(ValueError, match="latent"):
            route(model.generator, levels, pe,
                  np.zeros(shape, dtype=model.dtype))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_pe_vector_of_another_length_than_the_batch(self, route, count):
        model = _model("cvae_gan")
        levels, _, latent = _inputs(model)
        with pytest.raises(ValueError, match="P/E"):
            route(model.generator, levels, np.full(count, 0.5), latent)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("size", [(16, 16), (4, 4), (8, 16), (16, 8)])
    def test_non_model_array_size(self, route, size):
        model = _model("cvae_gan")
        _, pe, latent = _inputs(model)
        levels = np.zeros((5, 1, *size), dtype=model.dtype)
        with pytest.raises(ValueError, match="expected encoded levels"):
            route(model.generator, levels, pe, latent)
