"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is recorded dynamically: every operation produces a new
Tensor holding a closure that routes the incoming gradient to its parents.
``backward()`` on a scalar loss runs the tape in reverse topological order and
releases it as it goes (rollout lengths vary per scene, so tapes are one-shot):
once a node's closure has run, its closure and parents are dropped, and a node
with parents, the loss included, drops its gradient too. Afterwards only leaves
(tensors without parents, such as parameters) hold ``.grad``. Closures save no
array that they can recompute, bit for bit, from their inputs' data or their
own output: ``linear`` applies its ReLU inside its node and reads the mask off
its output, so no pre-activation is taped, and ``dropout`` keeps a boolean
mask and rebuilds the float keep from it in backward.

Gradient ownership: a node's ``.grad`` is its own until its closure returns,
so the closure may hand that array, or views of it, on to its parents. A
parent with no gradient yet adopts what it is handed and later adds into it
in place, so no two parents may be handed the same memory: ``concat`` hands
each its own slice, ``linear`` hands ``g`` itself to its ``residual`` alone,
and ``__add__``, the only op that passes ``g`` to both sides, copies the
second operand's share when the first has just adopted it (``x + x``
included). No op hands a gradient to an operand that does not require grad,
such as the GRU's zero initial state: only parameters' gradients are ever
read.

In place: an op allocates each result once and finishes its expression in
place (``out = x @ W; out += b``), but writes only into arrays it has just
made itself. An array that is a tape node's ``.data``, or that was handed to
a parent, is never written. Each in-place step keeps the out-of-place
expression's operation order, so every bit stays, and each array handed on
keeps the memory layout the out-of-place expression gave it: numpy's sums add
in layout order, so a changed layout changes later bits.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

ArrayLike = Union[float, int, Sequence, np.ndarray]
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in a dynamically recorded autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if not _parents and not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(x: Union["Tensor", ArrayLike]) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _accumulate(self, g: np.ndarray) -> None:
        """Adopt g as the gradient if there is none yet, else add it in. The
        caller gives g away: no other node may hold it (see the module
        docstring), since a later accumulation writes into it."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                gb = _unbroadcast(g, b.shape)
                b._accumulate(gb if gb is not a.grad else gb.copy())

        return Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)

    def __sub__(self, other):
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(-_unbroadcast(g, b.shape))

        return Tensor(a.data - b.data, _parents=(a, b), _backward=bwd)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeMismatchError(
                f"matmul: incompatible shapes {a.shape} x {b.shape}"
            )

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

        return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward=bwd)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self):
        a = self

        def bwd(g):
            a._accumulate(g * (a.data > 0))

        return Tensor(np.maximum(a.data, 0.0), _parents=(a,), _backward=bwd)

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def bwd(g):
            a._accumulate(g * (1.0 - out_data * out_data))

        return Tensor(out_data, _parents=(a,), _backward=bwd)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def bwd(g):
            a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor(out_data, _parents=(a,), _backward=bwd)

    # ------------------------------------------------------------------
    # reductions and reshaping
    # ------------------------------------------------------------------
    def sum(self):
        a = self

        def bwd(g):
            a._accumulate(np.full(a.shape, g))

        return Tensor(a.data.sum(), _parents=(a,), _backward=bwd)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def bwd(g):
            a._accumulate(g.reshape(old))

        return Tensor(a.data.reshape(shape), _parents=(a,), _backward=bwd)

    def swapaxes(self, ax1: int, ax2: int):
        a = self

        def bwd(g):
            a._accumulate(np.swapaxes(g, ax1, ax2))

        return Tensor(np.swapaxes(a.data, ax1, ax2), _parents=(a,), _backward=bwd)

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]
        # basic indices (ints, slices, None, Ellipsis) select every slot at
        # most once: adding g into the zero view gives np.add.at's sums, signed
        # zeros included. Array keys may repeat a slot and scatter.
        basic = all(
            k is None or k is Ellipsis or isinstance(k, slice)
            or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
            for k in (key if isinstance(key, tuple) else (key,))
        )

        def bwd(g):
            full = np.zeros_like(a.data)
            if basic:
                full[key] += g
            else:
                np.add.at(full, key, g)
            a._accumulate(full)

        return Tensor(out_data, _parents=(a,), _backward=bwd)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode sweep from a scalar that releases the tape as it goes:
        once a node's closure has run, its closure and parents are dropped, and
        its `.grad` too if it has parents. Leaves keep `.grad`; every node with
        parents, this loss included, ends with `.grad` None."""
        if self.size != 1:
            raise ShapeMismatchError(
                f"backward() needs a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:  # an intermediate: its gradient is spent
                node.grad = None
            node._parents = ()
            node._backward = None


# ----------------------------------------------------------------------
# composite ops
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along axis; a lone input is returned as it is, with no tape node."""
    tensors = [Tensor._lift(t) for t in tensors]
    if len(tensors) == 1:
        return tensors[0]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=bwd,
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]

    def bwd(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return Tensor(
        np.stack([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=bwd,
    )


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and
    shift. Backward recomputes the normalized rows from x.data.

    x.data must be C-ordered, as every caller's is: backward hands x a
    C-ordered gradient, the out-of-place expression's layout (and so, for
    later sums, its bits) only when x.data is C-ordered."""

    def normalize():  # (x - mean) * inv_std over the last axis, and inv_std
        norm = x.data - x.data.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((norm * norm).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
        norm *= inv_std
        return norm, inv_std

    out, _ = normalize()
    out *= gain.data
    out += bias.data

    def bwd(g):
        norm, inv_std = normalize()  # the forward's expressions, so its bits
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * norm, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if not x.requires_grad:
            return
        # inv_std * (dn - mean(dn) - norm * mean(dn * norm)), in place on dn
        dn = g * gain.data
        m2 = (dn * norm).mean(axis=-1, keepdims=True)
        dn -= dn.mean(axis=-1, keepdims=True)
        norm *= m2
        dn -= norm
        dn *= inv_std
        # dn is laid out like g, which TGConv's closing swapaxes hands on
        # transposed; x takes the C order of its data (see above), as later
        # sums add in layout order
        x._accumulate(np.ascontiguousarray(dn))

    return Tensor(out, _parents=(x, gain, bias), _backward=bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor, residual: Optional[Tensor] = None,
           relu: bool = False) -> Tensor:
    """Affine map on the last axis: x @ weight + bias, weight is (in, out),
    plus residual (of the result's shape) when given, then with `relu` a
    ReLU in place, as one tape node with the gradients of the matmul-then-add
    composite, its `+ residual` and its `.relu()`, bit for bit. Taped as
    nodes of their own, the add and the ReLU would each keep an extra
    result-sized array until the backward pass. The ReLU's mask is read off
    the output, > 0 exactly where its input was (NaN included)."""
    if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeMismatchError(f"linear: incompatible shapes {x.shape} x {weight.shape}")
    out = np.matmul(x.data, weight.data)
    out += bias.data
    parents = (x, weight, bias)
    if residual is not None:
        if residual.shape != out.shape:
            raise ShapeMismatchError(f"linear: residual of {residual.shape} for {out.shape}")
        out += residual.data
        parents += (residual,)
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        if relu:
            g = g * (out > 0)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        gw = np.matmul(np.swapaxes(x.data, -1, -2), g) if weight.requires_grad else None
        gx = np.matmul(g, weight.data.T) if x.requires_grad else None
        # residual takes g itself, as the composite's add handed it first:
        # after its last read here, since residual may be x and add into g
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        if gx is not None:
            x._accumulate(_unbroadcast(gx, x.shape))
        if gw is not None:
            weight._accumulate(_unbroadcast(gw, weight.shape))

    return Tensor(out, _parents=parents, _backward=bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, for training; identity at rate 0. One tape node
    holding the boolean mask of kept entries, from which forward and backward
    rebuild the float keep with one expression: the output and gradient of
    `x * Tensor(keep)`, bit for bit, with no float keep on the tape. The
    output is C-ordered, as that product's is for a C-ordered x."""
    if rate <= 0.0:
        return x
    mask = rng.random(x.shape) >= rate

    def bwd(g):
        x._accumulate(g * (mask / (1.0 - rate)))

    out = mask / (1.0 - rate)
    out *= x.data  # x.data * keep: IEEE multiplication commutes
    return Tensor(out, _parents=(x,), _backward=bwd)


def parameter(data: ArrayLike) -> Tensor:
    return Tensor(data, requires_grad=True)
