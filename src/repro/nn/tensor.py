"""Reverse-mode automatic differentiation on NumPy arrays.

The engine is deliberately small: a :class:`Tensor` wraps an ``numpy.ndarray``
and records, for every differentiable operation, a closure that accumulates
gradients into its parents.  Calling :meth:`Tensor.backward` walks the recorded
graph in reverse topological order and releases it as it goes, so a step's
saved activations are freed as soon as its loss is dropped.

Broadcasting is fully supported: gradients flowing into a broadcast operand are
reduced (summed) back to the operand's original shape by :func:`_unbroadcast`.

Precision policy: operations preserve the dtype of the tensors they are
applied to — float32 activations produce float32 outputs and float32
gradients (scalar operands are coerced to the tensor's dtype so NumPy's
promotion rules cannot silently upcast a float32 graph to float64).  New
tensors created from non-array data default to
:func:`repro.nn.dtypes.get_default_dtype`.  Matmul and leaky-ReLU are routed
through the swappable backend of :mod:`repro.nn.backend`; the other
elementwise ops call NumPy directly.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.dtypes import get_default_dtype

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    def __init__(self):
        self.enabled = True


#: Whether operations record gradients, per thread like the backend and
#: dtype modes: a thread leaving :func:`no_grad` must not turn graph
#: building back on in another thread that is still inside it.
_GRAD = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference mode) on this thread."""
    previous = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record gradients."""
    return _GRAD.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _released() -> None:
    """Backward closure of a node whose graph a ``backward()`` released."""
    raise RuntimeError("backward() reached a tensor whose graph was already "
                       "released by an earlier backward(); recompute the "
                       "forward pass to differentiate again")


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got a Tensor")
    array = np.asarray(value, dtype=dtype)
    if dtype is None:
        if array.dtype.kind in "iub":
            # Integer/bool data adopts the default floating dtype.
            array = array.astype(get_default_dtype())
        elif array.dtype.kind == "f" and not isinstance(value, np.ndarray):
            # Python floats / lists adopt the default dtype too; an explicit
            # ndarray keeps whatever float dtype the caller chose.
            array = array.astype(get_default_dtype(), copy=False)
    return array


class Tensor:
    """A NumPy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array-like value.  Integer inputs (and non-array float data) are
        promoted to the default dtype
        (:func:`repro.nn.dtypes.get_default_dtype`); an explicit ndarray
        keeps its own float dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream tensor.
    dtype:
        Optional explicit dtype for the wrapped array.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad: bool = bool(requires_grad) and _GRAD.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = dtype if dtype is not None else get_default_dtype()
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = dtype if dtype is not None else get_default_dtype()
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ensure(value) -> "Tensor":
        """Wrap ``value`` in a Tensor if it is not one already."""
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _coerce(value, dtype) -> "Tensor":
        """Wrap an operand, pinning scalars to ``dtype``.

        Python/NumPy scalars (and 0-d arrays) are cast to the other
        operand's dtype so mixed expressions like ``x * 0.5`` never upcast a
        float32 graph to float64 under NumPy's promotion rules.  Array
        operands keep their own dtype.
        """
        if isinstance(value, Tensor):
            return value
        if np.isscalar(value):
            return Tensor(np.asarray(value, dtype=dtype))
        array = np.asarray(value)
        if array.ndim == 0:
            return Tensor(array.astype(dtype, copy=False))
        return Tensor(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (detached view)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (gradients are cast back on backward).

        A same-dtype cast is the identity: no copy, no graph node.
        """
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        out = self._make_child(self.data.astype(dtype), (self,), "astype")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad)
            out._backward = _backward
        return out

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph utilities
    # ------------------------------------------------------------------ #
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    op: str) -> "Tensor":
        requires = _GRAD.enabled and any(p.requires_grad for p in parents)
        child = Tensor.__new__(Tensor)
        child.data = data
        child.requires_grad = requires
        child.grad = None
        child._backward = None
        child._parents = tuple(parents) if requires else ()
        child._op = op
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        # Accumulation is dtype preserving: whatever dtype the incoming
        # gradient arrives with (e.g. the float64 scalar seeding a loss), the
        # stored gradient keeps the tensor's own dtype.
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller hands over.

        Backward kernels that return fresh arrays nothing else references
        (``col2im``, the conv input gradient, ``bn_bwd_dx``) hand them over
        here, skipping the defensive first-accumulation copy.  Falls back
        to :meth:`_accumulate` whenever adoption would change semantics
        (existing gradient, dtype/shape mismatch).
        """
        if (self.grad is None and isinstance(grad, np.ndarray)
                and grad.dtype == self.dtype and grad.shape == self.shape):
            self.grad = grad
        else:
            self._accumulate(grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ``1`` and is only optional for scalar tensors.  An external
            gradient must already have this tensor's dtype (no silent casts)
            and a shape broadcastable to the tensor's shape.

        The walked graph is released: a later ``backward()`` that reaches
        one of its nodes raises ``RuntimeError``.  Leaf tensors keep
        accumulating gradients across graphs.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not "
                               "require gradients")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar "
                                   "tensors")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad)
            if grad.dtype != self.data.dtype:
                raise TypeError(
                    f"seed gradient dtype {grad.dtype} does not match tensor "
                    f"dtype {self.data.dtype}; cast the gradient explicitly "
                    "before calling backward()")
            if grad.shape != self.data.shape:
                try:
                    broadcast = np.broadcast_shapes(grad.shape,
                                                    self.data.shape)
                except ValueError:
                    broadcast = None
                if broadcast != self.data.shape:
                    raise ValueError(
                        f"seed gradient shape {grad.shape} is not "
                        f"broadcastable to tensor shape {self.data.shape}")
                grad = np.broadcast_to(grad, self.data.shape)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            backward = node._backward
            if backward is None:
                continue
            if node.grad is not None:
                backward()
            # Every closure refers to its own output, so an intact graph is
            # a reference cycle that only the cyclic collector would free,
            # saved activations included.  Release it node by node instead.
            node._backward = _released
            node._parents = ()

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other, self.data.dtype)
        out = self._make_child(self.data + other.data, (self, other), "add")

        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))
            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,), "neg")
        if out.requires_grad:
            def _backward():
                self._accumulate(-out.grad)
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._coerce(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other, self.data.dtype)
        out = self._make_child(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other, self.data.dtype)
        out = self._make_child(self.data / other.data, (self, other), "div")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    grad_other = -out.grad * self.data / (other.data ** 2)
                    other._accumulate(_unbroadcast(grad_other, other.shape))
            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            def _backward():
                grad = out.grad * exponent * self.data ** (exponent - 1)
                self._accumulate(grad)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out = self._make_child(np.exp(self.data), (self,), "exp")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * out.data)
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make_child(value, (self,), "tanh")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * (1.0 - value ** 2))
            out._backward = _backward
        return out

    def _needs_graph(self) -> bool:
        """Whether an op on this tensor must record backward state.

        The graph-free fast-forward path: under :func:`no_grad` (or for leaf
        data that never requires gradients) elementwise ops skip both the
        backward closure and the auxiliary arrays (masks, signs) it would
        capture, leaving a single forward NumPy call per op.
        """
        return _GRAD.enabled and self.requires_grad

    def relu(self) -> "Tensor":
        if not self._needs_graph():
            return self._make_child(np.maximum(self.data, 0.0), (self,),
                                    "relu")
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,), "relu")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        if not self._needs_graph():
            return self._make_child(
                get_backend().leaky_relu(self.data, negative_slope),
                (self,), "leaky_relu")
        mask = self.data > 0
        scale = np.where(mask, self.data.dtype.type(1.0),
                         self.data.dtype.type(negative_slope))
        out = self._make_child(self.data * scale, (self,), "leaky_relu")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * scale)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_child(np.asarray(value), (self,), "sum")
        if out.requires_grad:
            input_shape = self.shape

            def _backward():
                grad = out.grad
                if axis is None:
                    grad = np.broadcast_to(grad, input_shape)
                else:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % len(input_shape) for a in axes)
                    if not keepdims:
                        grad = np.expand_dims(grad, axis=axes)
                    grad = np.broadcast_to(grad, input_shape)
                self._accumulate(grad)
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            original = self.shape

            def _backward():
                self._accumulate(out.grad.reshape(original))
            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self._make_child(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _backward():
                self._accumulate(out.grad.transpose(inverse))
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")
        if out.requires_grad:
            def _backward():
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor.ensure(other)
        backend = get_backend()
        out = self._make_child(backend.matmul(self.data, other.data),
                               (self, other), "matmul")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(backend.matmul(out.grad, other.data.T))
                if other.requires_grad:
                    other._accumulate(backend.matmul(self.data.T, out.grad))
            out._backward = _backward
        return out

    __matmul__ = matmul


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    template = tensors[0]
    out = template._make_child(data, tensors, "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward():
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * out.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(out.grad[tuple(index)])
        out._backward = _backward
    return out
