"""LSTM encoder-decoder for reconstructing healthy-operation windows.

The encoder folds an l-step window into its final hidden/cell state; the
decoder, seeded with that state, regenerates the window in reverse order. A
linear readout maps each decoder hidden state to a predicted input row. The
very first prediction comes straight from the inherited encoder state, before
the decoder consumes any input.

Training is teacher-forced (the true row is fed at each decoder step);
inference is autoregressive (each prediction is fed back). Every pass, of
either cell, in training or inference, is one call of one driver (_run)
around one cell-step function, so the paths cannot drift apart. Gradients
are exact reverse-mode backpropagation through the unrolled network;
everything here is hand-written over numpy arrays.

A model's dtype is the dtype of its ``params``: float32 or float64 (any
other dtype converts to float64). Every buffer of a pass, the windows and
states fed to it and the optimizer's moments follow that dtype, so a
float32 model runs its whole arithmetic in float32; ``train`` trains a
float32 model when its training windows are float32, and a float64 one
otherwise. The reconstruction error is all a build takes from the model,
and a build trains in float32 (pipeline._LSTM_DTYPE).

Every entry point works on batches only: windows are (B, l, p) arrays and
states (B, n) arrays, one row per window. A single window is the batch
``window[None]``; a bare (l, p) window or (n,) state is rejected with a
ValueError naming the expected shape.

Gate layout in the stacked affine transform, in block order: input gate i,
forget gate f, output gate o, candidate g. The first three pass through the
logistic function, computed as 0.5 * tanh(0.5 * x) + 0.5 (which cannot
overflow), the candidate through tanh.

A cell runs a T-step sequence on a batch of B rows over preallocated
[x | h] slots of shape (p+n, B), feature-major with the batch last so that
every gate block and state is one contiguous (n, B) block. Slot t holds
[x_t | h_t-1]: the driver copies x_t into it, and each step writes its h
straight into the next slot, so a step is one (4n, p+n) @ (p+n, B) GEMM
plus elementwise work, with no concatenation and no temporary array. The
trace's kind is the only difference between a training pass and an
inference pass: training keeps T+1 slots, with every step's gates and
cells, for the backward pass, while inference (``encode``,
``decode_train``, ``decode_infer``) rolls two slots, so beyond the
predictions it returns its memory is O(B (p+n)) whatever T.

A trace makes each step's operands once, as views: the gate slot and its
i|f|o|g rows, the cell slots the step reads and writes, its tanh-cell slot,
the h rows of the next slot and each unit's GEMM columns. A step then only
calls numpy on them, with no indexing by t. At this package's sizes a pass
costs numpy's per-call time more than arithmetic, so ``train`` also makes
its buffers once per call: one workspace per batch size (the full batch and
a shorter last one) holds both kept traces, the predictions, the
gradients, each cell's backward-step views and the flat gradient, and the
per-epoch validation pass refills one pair of rolled traces.

Inference may run the windows of several units as one batch
(health.pointwise_reconstructions): ``encode`` and ``decode_infer`` then
pass _run the column cuts between the units, and every step runs its gate
GEMM and its readout GEMM once per unit, on that unit's columns, and each
elementwise operation once over the whole batch. A GEMM computes its
trailing columns with another kernel, so one GEMM over the joint batch
would give a unit other bits than a batch of its own; per-unit GEMMs give
the same bits. Training passes no cuts.

The GEMM runs against a prepared copy of the cell, in buffers made once per
trace and refilled by each run: the stacked weight and bias with their
i|f|o rows multiplied by 0.5, and the bias tiled to a contiguous (4n, B)
block. Scaling by a power of two is exact in float32 and float64 (barring
subnormal values), so (0.5 W) xh + 0.5 b has the bits of 0.5 (W xh + b),
and one tanh over all 4n rows then gives the logistic's tanh(0.5 x) and the
candidate's tanh at once. The tiled add costs less than broadcasting the
bias column on every step.
Outputs are bit for bit those of the plainly written step in the tests
(reference_cell_step) in the same dtype.
Autoregressive inference reads each decoder state out as it is made and
copies the prediction into the x rows of the slot that feeds it back.
Teacher-forced passes read the states out in stacks, with the bits of one
readout per state: a kept trace all of them in one GEMM after the loop, and
a rolled one two at a time, once both slots hold new states. The backward
pass takes every step's local derivatives in one pass over a kept trace,
turns them into the step's pre-activation gradient in place, takes dh_t-1
from the h columns of the weight only, and after the loop gets the weight
and bias gradients from one GEMM over the whole buffer; it reads the
model's own weights, never the halved copy. The readout's gradients
likewise come from one GEMM over all decoder states.

``train`` records per epoch, in its TrainResult, the summed training and
validation losses, the largest pre-clip global gradient norm, the number of
clipped batches and the wall seconds, all from values the loop computes
anyway.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .config import RunConfig

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class LstmParams:
    """One cell's stacked gate transform: weight (4n, p+n), bias (4n,).

    Compared by identity.
    """

    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class LstmState:
    """Hidden and cell states of a batch, each shape (B, n); compared by identity."""

    hidden: np.ndarray
    cell: np.ndarray


def _shapes(p: int, n: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of each parameter block, in the order of the flat vector."""
    return {
        "enc_w": (4 * n, p + n),
        "enc_b": (4 * n,),
        "dec_w": (4 * n, p + n),
        "dec_b": (4 * n,),
        "out_w": (n, p),
        "out_b": (p,),
    }


def _size(p: int, n: int) -> int:
    return sum(math.prod(shape) for shape in _shapes(p, n).values())


def _dtype(dtype) -> np.dtype:
    """The dtype that arrays of ``dtype`` run in: float32 stays float32, and
    every other dtype runs in float64."""
    return np.dtype(np.float32 if dtype == np.float32 else np.float64)


def _blocks(vector: np.ndarray, p: int, n: int) -> dict[str, np.ndarray]:
    """Views of a flat vector as the named blocks of the parameter layout."""
    if vector.shape != (_size(p, n),):
        raise ValueError(f"params must have shape ({_size(p, n)},), got {vector.shape}")
    blocks, at = {}, 0
    for name, shape in _shapes(p, n).items():
        blocks[name] = vector[at : at + math.prod(shape)].reshape(shape)
        at += math.prod(shape)
    return blocks


@dataclass(frozen=True, eq=False)
class LstmEdModel:
    """Encoder/decoder cells plus the linear readout, over one flat vector.

    Construction checks the length of ``params`` and fixes the last four
    attributes as views into it, in the block order of _shapes. Compared by
    identity; compare ``params`` for equal values.

    Attributes:
        params: Every parameter, a flat float32 or float64 vector; its dtype
            is the model's (see _dtype).
        input_dim: p, columns per input row.
        hidden_units: c, shared by encoder and decoder.
        window_len: l, the training window length.
        encoder: Gate transform consuming input rows forward in time.
        decoder: Gate transform regenerating rows in reverse.
        out_weight: Readout weight, shape (c, p).
        out_bias: Readout bias, shape (p,).
    """

    params: np.ndarray
    input_dim: int
    hidden_units: int
    window_len: int
    encoder: LstmParams = field(init=False, repr=False)
    decoder: LstmParams = field(init=False, repr=False)
    out_weight: np.ndarray = field(init=False, repr=False)
    out_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.input_dim, self.hidden_units, self.window_len) < 1:
            raise ValueError("input_dim, hidden_units, window_len must be >= 1")
        params = np.asarray(self.params)
        params = params.astype(_dtype(params.dtype), copy=False)
        blocks = _blocks(params, self.input_dim, self.hidden_units)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "encoder", LstmParams(blocks["enc_w"], blocks["enc_b"]))
        object.__setattr__(self, "decoder", LstmParams(blocks["dec_w"], blocks["dec_b"]))
        object.__setattr__(self, "out_weight", blocks["out_w"])
        object.__setattr__(self, "out_bias", blocks["out_b"])


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Outcome of one training run; compared by identity, since
    ``epoch_seconds`` differs between any two runs.

    Attributes:
        model: Parameters from the epoch with the lowest validation loss
            (epoch 0 means the untrained initialization was never beaten).
        train_history: Summed teacher-forced training loss per epoch, each
            batch's squared errors summed in (decoder step, column, window)
            order as the backward pass lays them out. So it can differ in
            the last bits from loss(decode_train(...)) on the same batches,
            which sums in (window, row, column) order.
        val_history: Summed validation loss per epoch, index 0 being the
            untrained model's loss.
        best_epoch: Index into val_history of the checkpoint returned.
        max_grad_norms: Largest pre-clip global gradient norm per epoch.
        clip_counts: Number of batches per epoch whose gradient was clipped.
        epoch_seconds: Wall seconds per epoch, validation included.
    """

    model: LstmEdModel
    train_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    best_epoch: int = 0
    max_grad_norms: list[float] = field(default_factory=list)
    clip_counts: list[int] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def init_model(
    input_dim: int, hidden_units: int, window_len: int, seed: int
) -> LstmEdModel:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), forget bias 1.

    Args:
        input_dim: p, columns per input row.
        hidden_units: c, hidden size of both cells.
        window_len: l, window length the model is trained on.
        seed: RNG seed; same seed gives bit-identical parameters.
    """
    return _init_from_rng(
        input_dim, hidden_units, window_len, np.random.default_rng(seed)
    )


def _init_from_rng(
    p: int, n: int, l: int, rng: np.random.Generator, dtype=np.float64
) -> LstmEdModel:
    """init_model's draws from ``rng``, each float64 draw rounded to ``dtype``."""
    model = LstmEdModel(np.zeros(_size(p, n), dtype), p, n, l)
    rec_bound = 1.0 / np.sqrt(p + n)
    for cell in (model.encoder, model.decoder):
        cell.w[...] = rng.uniform(-rec_bound, rec_bound, size=cell.w.shape)
        cell.b[n : 2 * n] = 1.0  # forget gate open at start aids gradient flow
    out_bound = 1.0 / np.sqrt(n)
    model.out_weight[...] = rng.uniform(-out_bound, out_bound, size=(n, p))
    return model


class _StepOps(NamedTuple):
    """The operands of one cell step, viewed once per trace (see _Trace)."""

    gates: np.ndarray  # the step's (4n, B) gate slot
    sig: np.ndarray  # its i|f|o rows
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray  # the cell slot the step reads
    c_next: np.ndarray  # the cell slot it writes
    tanh_cell: np.ndarray
    h_next: np.ndarray  # h rows of the next xh slot
    gemms: tuple[tuple[np.ndarray, np.ndarray], ...]  # each unit's xh and gate columns


@dataclass(frozen=True)
class _Trace:
    """One cell's buffers for a T-step sequence on a batch of B rows.

    Arrays are feature-major, batch last, so every gate block and state is a
    contiguous (n, B) block. Column b of slot t of ``xh`` is [x_t | h_t-1]
    of batch row b, and step t writes h_t into the h rows of the next slot.

    A kept trace (training) holds every step for the backward pass: T+1 xh
    slots, so ``xh[:, -n:]`` holds every state from the initial one (the x
    rows of the last slot are never written), plus every step's gates and
    cells. A rolled trace (inference) holds only the current step and the
    next: step t uses xh slot t modulo 2, one gate slot and two cell slots,
    so its memory is O(B (p+n)) whatever T. The shapes below are a kept
    trace's; a rolled trace has K = min(T, 1) in place of T. _run fills
    either kind, with the same step function, and may fill one trace any
    number of times: each run writes every buffer before reading it.

    Attributes:
        steps: T.
        kept: Whether the trace is kept (else rolled).
        w: The cell's stacked weight, i|f|o rows halved, shape (4n, p+n).
        bias: The cell's bias, i|f|o rows halved, tiled to shape (4n, B).
        xh: Shape (T+1, p+n, B), so (K+1, p+n, B) rolled, like ``cell``.
        gates: Shape (T, 4n, B), activated: logistic i|f|o, then tanh g.
        cell: Shape (T+1, n, B), the initial cell state first.
        tanh_cell: Shape (T, n, B), tanh of the cell states after it.
        ig: Shape (n, B), scratch for one step's i * g.
        ops: Each step's operands: one per step when kept; when rolled,
            one per xh slot that a step reads, step t taking ops[t % 2].
        columns: Each unit's column slice of the batch.
        heads: Each unit's h rows of every xh slot, the readout's operand.
    """

    steps: int
    kept: bool
    w: np.ndarray
    bias: np.ndarray
    xh: np.ndarray
    gates: np.ndarray
    cell: np.ndarray
    tanh_cell: np.ndarray
    ig: np.ndarray
    ops: list[_StepOps]
    columns: list[slice]
    heads: list[np.ndarray]

    @classmethod
    def of(cls, model: LstmEdModel, b: int, steps: int, keep: bool, cuts=None):
        """Empty buffers and their step views for ``model``'s sizes and dtype.

        ``cuts``, the ascending column boundaries (0, ..., B) of the units
        that share the batch, gives each unit its own gate GEMM and readout
        GEMM on its columns, so each unit gets the bits of a batch of its
        own; None is one unit of B columns.
        """
        p, n, dtype = model.input_dim, model.hidden_units, model.params.dtype
        held = steps if keep else min(steps, 1)  # steps held: T kept, K rolled
        xh = np.empty((held + 1, p + n, b), dtype)
        gates = np.empty((held, 4 * n, b), dtype)
        cell = np.empty((held + 1, n, b), dtype)
        tanh_cell = np.empty((held, n, b), dtype)
        cuts = (0, b) if cuts is None else cuts
        columns = [slice(lo, hi) for lo, hi in pairwise(cuts)]
        # step t's gate slot, the xh and cell slots it reads and the ones it
        # writes; each operand is then viewed once per step, by indexing a
        # view of all slots
        count = steps if keep else min(steps, 2)
        slot = [t % held for t in range(count)]
        now = [t % (held + 1) for t in range(count)]
        after = [(t + 1) % (held + 1) for t in range(count)]

        def pick(array, at):
            return [array[k] for k in at]

        gemms = zip(
            *[zip(pick(xh[..., u], now), pick(gates[..., u], slot)) for u in columns]
        )
        ops = list(
            map(
                _StepOps,
                pick(gates, slot),
                pick(gates[:, : 3 * n], slot),
                pick(gates[:, :n], slot),
                pick(gates[:, n : 2 * n], slot),
                pick(gates[:, 2 * n : 3 * n], slot),
                pick(gates[:, 3 * n :], slot),
                pick(cell, now),
                pick(cell, after),
                pick(tanh_cell, slot),
                pick(xh[:, p:], after),
                gemms,
            )
        )
        return cls(
            steps=steps,
            kept=keep,
            w=np.empty((4 * n, p + n), dtype),
            bias=np.empty((4 * n, b), dtype),
            xh=xh,
            gates=gates,
            cell=cell,
            tanh_cell=tanh_cell,
            ig=np.empty((n, b), dtype),
            ops=ops,
            columns=columns,
            heads=[xh[:, p:, u] for u in columns],
        )

    @property
    def final_hidden(self) -> np.ndarray:
        return self.xh[self.steps % self.xh.shape[0], -self.cell.shape[1] :]

    @property
    def final_cell(self) -> np.ndarray:
        return self.cell[self.steps % self.cell.shape[0]]


def _run(
    model: LstmEdModel,
    cell: LstmParams,
    trace: _Trace,
    h0: np.ndarray,
    c0: np.ndarray,
    rows: np.ndarray | None = None,
    preds: np.ndarray | None = None,
) -> _Trace:
    """Run ``cell`` over ``trace`` from state (h0, c0), both (n, B).

    The one driver of every pass. It first copies ``cell`` into the trace's
    prepared weight and bias and halves their i|f|o rows there, so a trace
    serves any model of its sizes. Step t is fed ``rows[t]``, a (p, B) row.
    With ``preds``, a (steps+1, p, B) buffer, every state (the initial one
    first) is read out into it, with one GEMM per unit over the trace's
    ``heads``:
    - without ``rows`` (autoregressive), each state as soon as it is made,
      and each step is fed the prediction just made;
    - with ``rows``, a kept trace's states all at once after the loop, and a
      rolled trace's two at a time, whenever both slots hold new states.
    A kept trace copies all of ``rows`` into its slots before the loop.
    """
    n, p = model.hidden_units, model.input_dim
    np.copyto(trace.w, cell.w)
    trace.w[: 3 * n] *= 0.5
    np.copyto(trace.bias, cell.b[:, None])
    trace.bias[: 3 * n] *= 0.5
    xh, ops, steps = trace.xh, trace.ops, trace.steps
    xh[0, p:] = h0
    trace.cell[0] = c0
    if preds is not None:
        out_w = model.out_weight.T
        out_b = model.out_bias[:, None]
        # each unit's h rows of every slot, and its prediction columns
        readouts = [(h, preds[..., u]) for h, u in zip(trace.heads, trace.columns)]
    if trace.kept:
        xh[:steps, :p] = rows
        for op in ops:
            _step(trace, op)
        if preds is not None:
            for h, pred in readouts:
                np.matmul(out_w, h, out=pred)
            preds += out_b
    elif rows is not None:
        for t in range(steps):
            xh[t % 2, :p] = rows[t]
            _step(trace, ops[t % 2])
            if preds is not None and t % 2 == 0:
                # slots 0 and 1 hold states t and t+1
                for h, pred in readouts:
                    np.matmul(out_w, h, out=pred[t : t + 2])
                preds[t : t + 2] += out_b
        if preds is not None and steps % 2 == 0:
            # the last state, alone in slot 0
            for h, pred in readouts:
                np.matmul(out_w, h[0], out=pred[steps])
            preds[steps] += out_b
    else:
        for t in range(steps + 1):
            for h, pred in readouts:
                np.matmul(out_w, h[t % 2], out=pred[t])
            preds[t] += out_b
            if t < steps:
                xh[t % 2, :p] = preds[t]
                _step(trace, ops[t % 2])
    return trace


def _step(trace: _Trace, op: _StepOps) -> None:
    """One cell step: reads [x_t | h_t-1] and c_t-1, writes gates, c_t and h_t.

    _run copies x_t into its slot first. The logistic of the i|f|o rows is
    0.5 * tanh(0.5 * pre) + 0.5; the trace's halved weight and bias rows give
    0.5 * pre directly, so one tanh covers all four blocks.
    """
    gates, sig, i, f, o, g, c_prev, c, tc, h, gemms = op
    for xh_cols, gate_cols in gemms:
        np.matmul(trace.w, xh_cols, out=gate_cols)
    gates += trace.bias
    np.tanh(gates, out=gates)
    sig *= 0.5
    sig += 0.5
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=trace.ig)
    c += trace.ig
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _slopes(trace: _Trace, dpre: np.ndarray, dh_dc: np.ndarray) -> None:
    """Local derivatives of every step of a kept trace, all steps at once.

    Writes dpre (T, 4n, B): dc_t/dpre_t for the i, f and g blocks and
    dh_t/dpre_t for the o block; and dh_dc (T, n, B): dh_t/dc_t.
    """
    gates = trace.gates
    n = trace.cell.shape[1]
    g = gates[:, 3 * n :]
    tc = trace.tanh_cell
    # every factor is built in its output slot, so the products run in the
    # other operand order, (1 - sig) * sig, (1 - g*g) * i and (1 - tc*tc) * o;
    # IEEE multiplication commutes, so the bits are those of sig * (1 - sig)
    ifo = dpre[:, : 3 * n]
    np.subtract(1.0, gates[:, : 3 * n], out=ifo)
    ifo *= gates[:, : 3 * n]
    dpre[:, :n] *= g
    dpre[:, n : 2 * n] *= trace.cell[:-1]
    dpre[:, 2 * n : 3 * n] *= tc
    dg = dpre[:, 3 * n :]
    np.multiply(g, g, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= gates[:, :n]
    np.multiply(tc, tc, out=dh_dc)
    np.subtract(1.0, dh_dc, out=dh_dc)
    dh_dc *= gates[:, 2 * n : 3 * n]


class _BackOps(NamedTuple):
    """The operands of one backward step, viewed once per workspace."""

    dh_dc: np.ndarray  # the step's dh_t/dc_t
    dpre: np.ndarray  # its (4n, B) slot of the _slopes array
    i_f: np.ndarray  # the i and f rows of that slot, as (2, n, B)
    o: np.ndarray
    g: np.ndarray
    f_gate: np.ndarray  # the step's forget gate


class _Backward:
    """A kept trace's backward buffers: the _slopes arrays, which the steps
    turn into dL/dpre, and each step's views of them."""

    def __init__(self, trace: _Trace):
        self.trace = trace
        self.dpre = np.empty_like(trace.gates)
        self.dh_dc = np.empty_like(trace.tanh_cell)
        steps, four_n, b = self.dpre.shape
        n = four_n // 4
        d = self.dpre
        i_f = d[:, : 2 * n].reshape(steps, 2, n, b)
        o, g = d[:, 2 * n : 3 * n], d[:, 3 * n :]
        forget = trace.gates[:, n : 2 * n]
        self.ops = list(map(_BackOps, self.dh_dc, d, i_f, o, g, forget))

    def run(self, cell: LstmParams, pairs, dstates=None):
        """Backprop every step, last first, from the (dh, dc) of ``pairs[0]``;
        each step first adds ``dstates[t + 1]`` to dh when given. Returns
        ``pairs`` reordered so that the first holds dL/dh and dL/dc of the
        trace's initial state."""
        trace = self.trace
        _slopes(trace, self.dpre, self.dh_dc)
        w_h = cell.w[:, -trace.cell.shape[1] :].T
        (dh, dc), spare = pairs
        for t in range(trace.steps - 1, -1, -1):
            if dstates is not None:
                dh += dstates[t + 1]
            _step_backward(w_h, self.ops[t], dh, dc, *spare)
            (dh, dc), spare = spare, (dh, dc)
        return (dh, dc), spare


def _step_backward(
    w_h: np.ndarray,
    op: _BackOps,
    dh: np.ndarray,
    dc: np.ndarray,
    dh_out: np.ndarray,
    dc_out: np.ndarray,
) -> None:
    """Backprop one step from dL/dh_t and dL/dc_t into dL/dh_t-1 and dL/dc_t-1.

    ``w_h`` is the transposed h columns of the cell's own weight, not the
    trace's halved copy. Turns the step's _slopes slot into dL/dpre_t in
    place; the weight gradients come later, from all steps at once (see
    _weight_grads). The outputs are other buffers than the inputs.
    """
    dh_dc, d, i_f, o, g, f = op
    np.multiply(dh, dh_dc, out=dc_out)
    dc_out += dc
    i_f *= dc_out
    o *= dh
    g *= dc_out
    dc_out *= f
    np.matmul(w_h, d, out=dh_out)


def _weight_grads(trace: _Trace, dgates: np.ndarray, out: LstmParams) -> None:
    """dL/dW and dL/db of one cell into ``out``: one GEMM over every [x | h]."""
    steps, four_n, _ = dgates.shape
    d = dgates.transpose(1, 0, 2).reshape(four_n, -1)
    xh = trace.xh[:steps].transpose(1, 0, 2).reshape(trace.xh.shape[1], -1)
    np.matmul(d, xh.T, out=out.w)
    np.sum(d, axis=1, out=out.b)


def _check_window(window, name: str, model: LstmEdModel | None = None) -> np.ndarray:
    """``window`` as a (B, l, p) batch: the one definition of a batch.

    With a model, l and p must be its window length and input width, and the
    batch takes the model's dtype; without one, float32 windows stay float32
    and any others convert to float64 (see _dtype). A batch already of that
    dtype is not copied.

    Raises:
        ValueError: Naming the expected shape, for any other shape.
    """
    w = np.asarray(window)
    w = w.astype(_dtype(w.dtype) if model is None else model.params.dtype, copy=False)
    l, p = ("l", "p") if model is None else (model.window_len, model.input_dim)
    if w.ndim != 3 or (model is not None and w.shape[1:] != (l, p)):
        raise ValueError(f"{name} must have shape (B, {l}, {p}), got {w.shape}")
    return w


def _state_columns(model: LstmEdModel, state: LstmState):
    """Feature-major (n, B) hidden and cell arrays of a batched (B, n) state.

    Raises:
        ValueError: Naming the expected shape, for any other shape.
    """
    h, c = np.asarray(state.hidden), np.asarray(state.cell)
    n = model.hidden_units
    if h.ndim != 2 or h.shape[1] != n or c.shape != h.shape:
        raise ValueError(
            f"state must have shape (B, {n}), got hidden {h.shape}, cell {c.shape}"
        )
    return h.T, c.T


def encode(model: LstmEdModel, window: np.ndarray, *, _cuts=None) -> LstmState:
    """Run the encoder over a batch of l-row windows from the zero state.

    The cell runs on two rolling [x | h] slots, so the buffers are
    O(B (p+c)) whatever l. The private ``_cuts`` are _run's ``cuts``.

    Args:
        model: The encoder-decoder model.
        window: Shape (B, l, p).

    Returns:
        Final encoder states after the l-th step, each (B, n).
    """
    w = _check_window(window, "window", model)
    b, l, _ = w.shape
    zeros = np.zeros((model.hidden_units, b), w.dtype)
    trace = _Trace.of(model, b, l, False, _cuts)
    _run(model, model.encoder, trace, zeros, zeros, w.transpose(1, 2, 0))
    return LstmState(
        hidden=trace.final_hidden.T.copy(), cell=trace.final_cell.T.copy()
    )


def _time_order(preds: np.ndarray) -> np.ndarray:
    """(T, p, B) predictions of rows T-1 down to 0 as a (B, T, p) array."""
    return np.ascontiguousarray(preds[::-1].transpose(2, 0, 1))


def decode_train(
    model: LstmEdModel, window: np.ndarray, enc_final: LstmState
) -> np.ndarray:
    """Teacher-forced decode: feed true rows, predict the window in reverse.

    The decoder starts from the encoder's final state and emits its first
    prediction (for the last row) before consuming any input; each subsequent
    step is fed the true row just predicted. Output rows are re-ordered so row
    t of the result predicts row t of the window. Beyond the (l, p, B)
    predictions, the buffers are O(B (p+c)) whatever l: two rolling [x | h]
    slots.

    Args:
        model: The encoder-decoder model.
        window: True rows, shape (B, l, p).
        enc_final: Encoder final states for the same windows, each (B, n).

    Returns:
        Predictions, shape (B, l, p).
    """
    w = _check_window(window, "window", model)
    h0, c0 = _state_columns(model, enc_final)
    b, l, p = w.shape
    if h0.shape[1] != b:
        raise ValueError(f"{h0.shape[1]} states for {b} windows")
    preds = np.empty((l, p, b), w.dtype)
    rows = w[:, :0:-1].transpose(1, 2, 0)
    _run(model, model.decoder, _Trace.of(model, b, l - 1, False), h0, c0, rows, preds)
    return _time_order(preds)


def decode_infer(
    model: LstmEdModel, enc_final: LstmState, steps: int, *, _cuts=None
) -> np.ndarray:
    """Autoregressive decode: feed each prediction back as the next input.

    Beyond the (steps, p, B) predictions, the buffers are O(B (p+c))
    whatever ``steps``: two rolling [x | h] slots, each prediction copied
    into the x rows of the slot that feeds it back. The private ``_cuts``
    are _run's ``cuts``.

    Args:
        model: The encoder-decoder model.
        enc_final: Encoder final states, each (B, n).
        steps: Number of rows to regenerate, >= 1.

    Returns:
        Predictions in original time order, shape (B, steps, p).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h0, c0 = _state_columns(model, enc_final)
    b = h0.shape[1]
    preds = np.empty((steps, model.input_dim, b), model.params.dtype)
    trace = _Trace.of(model, b, steps - 1, False, _cuts)
    _run(model, model.decoder, trace, h0, c0, preds=preds)
    return _time_order(preds)


def loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Sum over all points of the squared Euclidean reconstruction error.

    Computed in float32 when both arrays are float32, as a float32 model's
    training does, and in float64 otherwise.
    """
    p, t = np.asarray(predictions), np.asarray(targets)
    dtype = _dtype(np.result_type(p, t))
    p, t = p.astype(dtype, copy=False), t.astype(dtype, copy=False)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    diff = p - t
    return float(np.sum(diff * diff))


class _Workspace:
    """Every buffer of the teacher-forced forward and backward pass on (B, l, p)
    batches, for any model of one set of sizes and dtype.

    Made once and refilled by each pass (see _Trace): ``train`` keeps one
    per batch size, so at most two, and a one-off _forward_backward makes a
    fresh one. It holds a kept trace per cell and its _Backward; the
    predictions, their differences and the decoder-state gradients; two
    (dh, dc) pairs that the backward steps write in turn; and the flat
    gradient that every pass returns.
    """

    def __init__(self, model: LstmEdModel, b: int):
        p, n, l = model.input_dim, model.hidden_units, model.window_len
        dtype = model.params.dtype
        self.enc = _Backward(_Trace.of(model, b, l, True))
        self.dec = _Backward(_Trace.of(model, b, l - 1, True))
        self.zeros = np.zeros((n, b), dtype)
        self.preds = np.empty((l, p, b), dtype)
        self.diff = np.empty_like(self.preds)
        self.dy = np.empty_like(self.preds)
        self.dstates = np.empty((l, n, b), dtype)
        self.pairs = tuple(tuple(np.empty((n, b), dtype) for _ in "hc") for _ in "ab")
        self.grad = LstmEdModel(np.empty_like(model.params), p, n, l)

    def forward_backward(self, model: LstmEdModel, batch: np.ndarray):
        """_forward_backward on this workspace's buffers; the gradient it
        returns is the workspace's, overwritten by the next pass."""
        _, l, p = batch.shape
        n = model.hidden_units
        grad = self.grad
        zeros = self.zeros
        rows = batch.transpose(1, 2, 0)
        enc = _run(model, model.encoder, self.enc.trace, zeros, zeros, rows)
        # decoder state s (the encoder's final state first) predicts row l-1-s;
        # step s is fed true row l-1-s
        preds = self.preds
        rows = batch[:, :0:-1].transpose(1, 2, 0)
        h0, c0 = enc.final_hidden, enc.final_cell
        dec = _run(model, model.decoder, self.dec.trace, h0, c0, rows, preds)
        states = dec.xh[:, p:]
        diff = np.subtract(preds, batch[:, ::-1].transpose(1, 2, 0), out=self.diff)
        dy = np.multiply(2.0, diff, out=self.dy)
        total = float(np.add.reduce(np.multiply(diff, diff, out=diff), axis=None))
        flat_dy = dy.transpose(1, 0, 2).reshape(p, -1)
        flat_states = states.transpose(1, 0, 2).reshape(n, -1)
        np.matmul(flat_states, flat_dy.T, out=grad.out_weight)
        np.sum(flat_dy, axis=1, out=grad.out_bias)
        dstates = np.matmul(model.out_weight, dy, out=self.dstates)

        for buf in self.pairs[0]:
            buf.fill(0.0)
        pairs = self.dec.run(model.decoder, self.pairs, dstates)
        dh = pairs[0][0]
        dh += dstates[0]
        self.enc.run(model.encoder, pairs)

        _weight_grads(enc, self.enc.dpre, grad.encoder)
        _weight_grads(dec, self.dec.dpre, grad.decoder)
        return total, grad.params


def _forward_backward(model: LstmEdModel, batch: np.ndarray):
    """Teacher-forced loss and exact gradient for a (B, l, p) batch.

    The gradient is a flat vector laid out like ``model.params``, the sum of
    per-window gradients, matching the summed objective.
    """
    return _Workspace(model, batch.shape[0]).forward_backward(model, batch)


def grad_bptt(model: LstmEdModel, window: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradient of the teacher-forced loss for a batch of windows.

    Args:
        model: The encoder-decoder model.
        window: Shape (B, l, p); the gradient is the sum of per-window
            gradients.

    Returns:
        Dict with keys enc_w, enc_b, dec_w, dec_b, out_w, out_b, in that
        order, each shaped like the corresponding parameter. The values are
        views of one flat gradient vector laid out like ``model.params``.
    """
    _, grad = _forward_backward(model, _check_window(window, "window", model))
    return _blocks(grad, model.input_dim, model.hidden_units)


def _finite(value: float, which: str, epoch: int) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"training diverged: {which} loss is {value} at epoch {epoch}"
        )
    return value


# overflow shows up as a non-finite loss, which _finite reports as an error
@np.errstate(over="ignore", invalid="ignore")
def train(
    windows: np.ndarray,
    config: RunConfig,
    validation: np.ndarray,
) -> TrainResult:
    """Mini-batch training with early stopping on validation loss.

    Uses adaptive-moment gradient descent (decay 0.9/0.999, epsilon 1e-8)
    with global-norm gradient clipping. The model returned is the checkpoint
    with the lowest validation loss seen, the untrained initialization
    included as epoch 0. Deterministic given the seed: initialization, batch
    order, and arithmetic are all reproduced bit-for-bit.

    The dtype follows the training windows: float32 windows train a float32
    model, with every pass, loss and optimizer buffer in float32, on numpy
    1.24 and 2.x alike; any other windows convert to float64 and train a
    float64 model. The validation windows take the model's dtype.

    Args:
        windows: Training windows, shape (N, l, p) with N >= 1; a list of
            equal-shaped (l, p) windows converts too.
        config: Run configuration; supplies the hidden size c, the seed,
            and the optimizer settings.
        validation: Validation windows, shape (M, l, p) with M >= 1.

    Returns:
        TrainResult carrying the best model, the per-epoch loss histories
        and the per-epoch gradient-norm, clipping and timing diagnostics.

    Raises:
        ValueError: On empty windows, empty validation, windows of another
            shape, or a training or validation loss that is not finite
            (diverged).
    """
    if len(windows) == 0:
        raise ValueError("no training windows")
    if len(validation) == 0:
        raise ValueError("validation windows required for early stopping")
    train_batch = _check_window(windows, "training windows")
    _, l, p = train_batch.shape

    rng = np.random.default_rng(config.seed)
    model = _init_from_rng(p, config.c, l, rng, train_batch.dtype)
    val_batch = _check_window(validation, "validation windows", model)
    params = model.params

    # encode and decode_train over the validation batch, on traces and a
    # prediction buffer made once
    n_val = val_batch.shape[0]
    val_enc = _Trace.of(model, n_val, l, False)
    val_dec = _Trace.of(model, n_val, l - 1, False)
    val_zeros = np.zeros((config.c, n_val), val_batch.dtype)
    val_preds = np.empty((l, p, n_val), val_batch.dtype)
    enc_rows = val_batch.transpose(1, 2, 0)
    dec_rows = val_batch[:, :0:-1].transpose(1, 2, 0)

    def val_loss() -> float:
        enc = _run(model, model.encoder, val_enc, val_zeros, val_zeros, enc_rows)
        h0, c0 = enc.final_hidden, enc.final_cell
        _run(model, model.decoder, val_dec, h0, c0, dec_rows, val_preds)
        return loss(_time_order(val_preds), val_batch)

    best_val = _finite(val_loss(), "validation", 0)
    best_params = params.copy()
    best_epoch = 0
    val_history = [best_val]
    train_history: list[float] = []
    max_grad_norms: list[float] = []
    clip_counts: list[int] = []
    epoch_seconds: list[float] = []

    # the moments, the squared gradient and Adam's two temporaries share the
    # layout of params; the norm sums the squares block by block, in layout
    # order, with the reduction np.sum calls
    m_state = np.zeros_like(params)
    v_state = np.zeros_like(params)
    square = np.empty_like(params)
    denom = np.empty_like(params)
    update = np.empty_like(params)
    square_blocks = _blocks(square, p, config.c).values()
    # one workspace per batch size: the full batch and a shorter last one
    workspaces: dict[int, _Workspace] = {}
    # Python floats, as are gnorm and the Adam constants: a numpy float64
    # scalar would lift float32 arithmetic to float64 under numpy 2's NEP 50
    # but not under numpy 1.24
    clip_norm, rate = float(config.grad_clip_norm), float(config.learning_rate)
    step = 0
    stale = 0
    n_train = train_batch.shape[0]
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        max_gnorm = 0.0
        clipped = 0
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            work = workspaces.get(len(idx))
            if work is None:
                work = workspaces[len(idx)] = _Workspace(model, len(idx))
            batch_loss, grad = work.forward_backward(model, train_batch[idx])
            epoch_loss += batch_loss

            np.multiply(grad, grad, out=square)
            gnorm = math.sqrt(
                sum(float(np.add.reduce(block, axis=None)) for block in square_blocks)
            )
            max_gnorm = max(max_gnorm, gnorm)
            if gnorm > clip_norm:
                clipped += 1
                grad *= clip_norm / gnorm
                np.multiply(grad, grad, out=square)

            step += 1
            m_state *= _ADAM_BETA1
            m_state += np.multiply(1.0 - _ADAM_BETA1, grad, out=update)
            v_state *= _ADAM_BETA2
            v_state += np.multiply(1.0 - _ADAM_BETA2, square, out=update)
            np.divide(v_state, 1.0 - _ADAM_BETA2**step, out=denom)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            np.divide(m_state, 1.0 - _ADAM_BETA1**step, out=update)
            update /= denom
            update *= rate
            params -= update

        train_history.append(_finite(epoch_loss, "training", epoch))
        max_grad_norms.append(max_gnorm)
        clip_counts.append(clipped)
        current_val = _finite(val_loss(), "validation", epoch)
        val_history.append(current_val)
        epoch_seconds.append(time.perf_counter() - started)
        if current_val < best_val:
            best_val = current_val
            best_params[...] = params
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    return TrainResult(
        model=LstmEdModel(best_params, p, config.c, l),
        train_history=train_history,
        val_history=val_history,
        best_epoch=best_epoch,
        max_grad_norms=max_grad_norms,
        clip_counts=clip_counts,
        epoch_seconds=epoch_seconds,
    )
