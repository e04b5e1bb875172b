"""Dense scalar-output networks with explicit forward and backward passes.

Layers are numbered 1..L; layer l maps h^(l-1) to z^(l) = W^(l) h^(l-1) + b^(l)
and h^(l) = sigma(z^(l)) for l < L.  The output layer is linear with a single
unit, f = z^(L).  The squared loss is 0.5 * (f - y)^2.

Flat parameter vectors (gradients, Hessian diagonals) are ordered layer by
layer, each layer's weight matrix in row-major order followed by its bias
vector, giving p = sum_l n_l * (n_{l-1} + 1) entries.

Everything runs in float64.  The per-sample API is a thin view over the
batched implementation (inputs stacked as rows), so single-sample and
batch-of-one calls produce identical bits.  There is one trace type,
BatchTrace; the per-sample forward returns it with a single row.  Rows
of a larger batch may differ from the corresponding per-sample results
in the last bit, because matrix-product accumulation order depends on
the batch shape; repeated evaluation of the same batch is always
bit-identical.  grad_input_batch splits a batch of more than 512 rows
into blocks of 512 rows, so its rows past the first block are computed
at the block's shape: on 16-wide layers they equal the unsplit pass
except for a one-row tail block (n = 513, 1025, ...), while wider or
uneven layers such as (2, 32, 8, 1) and (2, 64, 64, 1) can differ in
the last bit past the first block, because OpenBLAS picks its kernel by
call shape.

A NetworkStack holds S networks of one shape side by side, weights of
shape (S, out, in).  Its hidden activation is either one rct_af member
of any beta per network (the sweep's curvature stack, from
stack_networks) or one ActivationSpec of any kind that every network
shares (the finite-difference oracles' bumped copies of one net, from
stack_params).  forward_batch, batch_deltas, mean_loss, grad_input_batch
and grad_params_batch take a stack wherever they take a Network: inputs
are shared, shape (n, in), or per member, shape (S, n, in), and results
gain a leading member axis.  Each member's results equal the same call
on that member alone bit for bit, because every product and reduction
runs per member on operands laid out as in the single-network call, and
every activation is evaluated element by element.  A plain Network runs
the same code on 2-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import activations as act
from .activations import ActivationSpec, FamilyStack
from .errors import NonFiniteError
from .record import Record

# Rows per grad_input_batch block.  On the default 16-wide layers each
# (512, 16) temporary is 64 KiB, below glibc's mmap threshold, so PGD and
# FGSM on large batches reuse heap memory instead of mapping (or trimming
# and regrowing) and faulting in fresh pages on every step.  Counted in
# rows, not elements, so the blocks do not depend on a stack's size.
_GRAD_BLOCK_ROWS = 512


@dataclass(eq=False)
class Network(Record):
    """Weights, biases and the shared hidden activation of one network."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: ActivationSpec

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2:
            raise ValueError("widths must list at least input and output sizes")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if self.widths[-1] != 1:
            raise ValueError("output layer must have a single unit")
        L = self.depth
        if len(self.weights) != L or len(self.biases) != L:
            raise ValueError(f"expected {L} weight and bias arrays")
        self.weights = [np.asarray(W, dtype=np.float64) for W in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for l in range(L):
            want = (self.widths[l + 1], self.widths[l])
            if self.weights[l].shape != want:
                raise ValueError(f"layer {l + 1} weight shape {self.weights[l].shape} != {want}")
            if self.biases[l].shape != (self.widths[l + 1],):
                raise ValueError(f"layer {l + 1} bias shape mismatch")

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    @property
    def param_count(self) -> int:
        return sum(self.widths[l + 1] * (self.widths[l] + 1) for l in range(self.depth))

    def copy(self) -> "Network":
        return Network(
            self.widths,
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )


@dataclass(eq=False)
class NetworkStack:
    """S networks of one shape: weights[l] is (S, out, in) and biases[l]
    is (S, 1, out).  activation is a FamilyStack, one rct_af member per
    network (alpha (S, 1, 1), beta (S,); build it with stack_networks),
    or one ActivationSpec of any kind shared by every network (build it
    with stack_params)."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: FamilyStack | ActivationSpec

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    def __len__(self) -> int:
        return len(self.weights[0])

    def member(self, k: int) -> Network:
        """Member k as a Network of its own."""
        a = self.activation
        if isinstance(a, FamilyStack):
            a = act.rct_af(float(a.alpha[k, 0, 0]), int(a.beta[k]))
        return Network(self.widths, [W[k].copy() for W in self.weights],
                       [b[k, 0].copy() for b in self.biases], a)

    def take(self, keep) -> "NetworkStack":
        """A stack of the members picked by an index array or boolean mask,
        possibly none."""
        a = self.activation
        if isinstance(a, FamilyStack):
            a = FamilyStack(a.alpha[keep], a.beta[keep])
        return NetworkStack(self.widths, [W[keep] for W in self.weights],
                            [b[keep] for b in self.biases], a)

    def copy(self) -> "NetworkStack":
        return self.take(np.arange(len(self)))


def stack_networks(nets) -> NetworkStack:
    """One stack of networks that share their widths and whose activations
    are rct_af members of any beta; member k is nets[k].  Members of one
    beta evaluate together, so listing them next to each other makes the
    fewest activation calls."""
    nets = list(nets)
    if not nets:
        raise ValueError("stack_networks needs at least one network")
    first = nets[0]
    for net in nets:
        if net.widths != first.widths:
            raise ValueError("stacked networks must share their widths")
        if net.activation.kind != "rct_af":
            raise ValueError("stacked networks must use rct_af members")
    alpha = np.array([net.activation.alpha for net in nets]).reshape(-1, 1, 1)
    return NetworkStack(
        first.widths,
        [np.stack([net.weights[l] for net in nets]) for l in range(first.depth)],
        [np.stack([net.biases[l][None, :] for net in nets]) for l in range(first.depth)],
        FamilyStack(alpha, [net.activation.beta for net in nets]),
    )


def stack_params(net: Network, rows) -> NetworkStack:
    """The stack whose member k has the flat parameters rows[k] (canonical
    order) and net's widths and activation.  Its weights and biases are
    views of rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != net.param_count:
        raise ValueError(f"expected rows of {net.param_count} flat parameters")
    S = rows.shape[0]
    weights, biases, off = [], [], 0
    for l in range(net.depth):
        n_out, n_in = net.widths[l + 1], net.widths[l]
        weights.append(rows[:, off:off + n_out * n_in].reshape(S, n_out, n_in))
        off += n_out * n_in
        biases.append(rows[:, off:off + n_out].reshape(S, 1, n_out))
        off += n_out
    return NetworkStack(net.widths, weights, biases, net.activation)


def init_network(
    widths, activation: ActivationSpec, seed: int, scheme: str = "he"
) -> Network:
    """He-normal or Xavier-uniform weights, zero biases, seeded rng."""
    widths = tuple(int(w) for w in widths)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for l in range(len(widths) - 1):
        fan_in, fan_out = widths[l], widths[l + 1]
        if scheme == "he":
            W = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        elif scheme == "xavier":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        else:
            raise ValueError(f"unknown init scheme {scheme!r}")
        weights.append(W)
        biases.append(np.zeros(fan_out))
    return Network(widths, weights, biases, activation)


@dataclass
class BatchTrace:
    """Forward pass over a batch: z[l-1] and h[l-1] are layer-l arrays.

    h has one extra leading entry, h[0] = X; f collects the scalar outputs.
    For a network stack every array but a shared X has a leading member axis.
    d1[l-1] and d2[l-1] are sigma'(z[l-1]) and sigma''(z[l-1]) per hidden
    layer from a pass run at derivative order 1 or 2; None below it.
    """

    z: list[np.ndarray]
    h: list[np.ndarray]
    f: np.ndarray
    d1: list[np.ndarray] | None
    d2: list[np.ndarray] | None


def _check_batch(net: Network | NetworkStack, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    # A stack also takes one batch per member, shape (S, batch, inputs).
    if X.ndim not in (2, net.weights[0].ndim) or X.shape[-1] != net.widths[0]:
        raise ValueError(f"expected inputs of shape (batch, {net.widths[0]})")
    return X


def _check_labels(X: np.ndarray, y) -> np.ndarray:
    """y as float64, one label per row of X, shared by every member of a
    stack."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != X.shape[-2:-1]:
        raise ValueError(f"labels of shape {y.shape} do not match inputs of shape "
                         f"{X.shape}: expected one label per row")
    return y


def _as_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("forward expects a 1-D input vector")
    return x[None, :]


def forward_batch(net: Network | NetworkStack, X, *, order: int = 0) -> BatchTrace:
    """Forward pass over the rows of X.

    Every hidden pre-activation is checked for finiteness once, here, and
    raises NonFiniteError (a ValueError) naming the stack members whose
    pass went non-finite if it is not.  order is the highest derivative of
    sigma the trace keeps for each hidden layer, taken from the same
    activation evaluation as sigma(z): 0 for forward-only callers, 1 adds
    sigma' for a backward pass, 2 adds sigma'' for the exact Hessian.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    X = _check_batch(net, X)
    L = net.depth
    z_list, h_list, terms = [], [X], []
    a = X
    for l in range(L):
        z = a @ net.weights[l].mT + net.biases[l]
        z_list.append(z)
        if l < L - 1:
            finite = np.isfinite(z)
            if not finite.all():
                raise NonFiniteError(~finite.all(axis=(-2, -1)))
            t = act._kernel(net.activation, z, order)
            a = t[0]
            h_list.append(a)
            terms.append(t)
    d1 = [t[1] for t in terms] if order else None
    d2 = [t[2] for t in terms] if order == 2 else None
    return BatchTrace(z_list, h_list, z_list[-1][..., 0], d1, d2)


def forward(net: Network, x) -> BatchTrace:
    """Per-sample forward pass: the one-row view of forward_batch, keeping
    sigma' for batch_deltas.  Every array in the trace has one row."""
    return forward_batch(net, _as_row(x), order=1)


def batch_deltas(net: Network | NetworkStack, trace: BatchTrace) -> list[np.ndarray]:
    """delta^(l) per layer from a trace made at order 1 or 2."""
    L = net.depth
    n = trace.f.shape[-1]
    delta = [None] * L
    delta[L - 1] = np.ones((n, 1))
    for l in range(L - 2, -1, -1):
        # delta^(L) is all ones, so delta^(L) @ W^(L) is the row W^(L) itself.
        back = net.weights[l + 1] if l == L - 2 else delta[l + 1] @ net.weights[l + 1]
        delta[l] = trace.d1[l] * back
    return delta


def mean_loss(net: Network | NetworkStack, X, y):
    """Mean squared loss over the rows: a float, or one per stack member."""
    X = _check_batch(net, X)
    y = _check_labels(X, y)
    f = forward_batch(net, X).f
    diff = f - y
    # The sum over the rows divided by their count is np.mean's own
    # arithmetic, bit for bit, without its per-call overhead.  Training
    # calls this once per epoch, and the finite-difference oracle once per
    # 256-member block and once more through the one-row loss.
    out = 0.5 * ((diff * diff).sum(axis=-1) / f.shape[-1])
    return float(out) if out.ndim == 0 else out


def loss(net: Network, x, y: float) -> float:
    """Squared loss 0.5 * (f(x) - y)^2 for one sample: the one-row view of
    mean_loss."""
    return mean_loss(net, _as_row(x), np.array([float(y)]))


def grad_params_batch(net: Network | NetworkStack, X, y) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (dW, db) gradients of the mean squared loss over the batch,
    shaped like the layer's weights and biases."""
    X = _check_batch(net, X)
    y = _check_labels(X, y)
    bt = forward_batch(net, X, order=1)
    delta = batch_deltas(net, bt)
    resid = (bt.f - y)[..., None]
    n = X.shape[-2]
    grads = []
    for l in range(net.depth):
        gscale = resid * delta[l]
        grads.append((gscale.mT @ bt.h[l] / n,
                      gscale.mean(axis=-2).reshape(net.biases[l].shape)))
    return grads


def _grad_input_block(net: Network | NetworkStack, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    bt = forward_batch(net, X, order=1)
    delta = batch_deltas(net, bt)
    return ((bt.f - y)[..., None] * delta[0]) @ net.weights[0]


def grad_input_batch(net: Network | NetworkStack, X, y) -> np.ndarray:
    """Gradient of each per-sample loss with respect to its input row.

    A batch of more than _GRAD_BLOCK_ROWS (512) rows is evaluated in
    blocks of that many rows, written into one output array; a smaller
    batch is one pass.  A stack member sees the same blocks, and computes
    the same bits, as its solo call.  Rows past the first block can
    differ in the last bit from an unsplit pass (see the module
    docstring).
    """
    X = _check_batch(net, X)
    y = _check_labels(X, y)
    n = X.shape[-2]
    if n <= _GRAD_BLOCK_ROWS:
        return _grad_input_block(net, X, y)
    out = np.empty(net.weights[0].shape[:-2] + X.shape[-2:])
    for lo in range(0, n, _GRAD_BLOCK_ROWS):
        rows = slice(lo, lo + _GRAD_BLOCK_ROWS)
        out[..., rows, :] = _grad_input_block(net, X[..., rows, :], y[rows])
    return out


def flat_params(net: Network) -> np.ndarray:
    return np.concatenate(
        [np.concatenate([net.weights[l].ravel(), net.biases[l]]) for l in range(net.depth)]
    )
