"""Shared test oracles: a plainly written cell step, complex-step
gradient checking, plain per-step BPTT, a plain per-block trainer, a
per-cycle moving average, a per-candidate weighted mean, a
rebuild-per-point sweep and the null RUL estimator; plus pipeline-file
surgery that re-signs edited headers and values."""

import hashlib
import json
import math
import tracemalloc
from typing import NamedTuple

import numpy as np

import edhi.pipeline
from edhi.config import apply_overrides
from edhi.data import RunToFailureDataset, truncate_at_fracs
from edhi.lstm import (
    LstmEdModel,
    TrainResult,
    _blocks,
    _shapes,
    decode_train,
    encode,
    grad_bptt,
    loss,
)
from edhi.metrics import EvalRecord, timeliness
from edhi.persist import MAGIC


def traced_peak(run):
    """Peak bytes traced while ``run()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def reference_cell_step(w, b, x, h, c):
    """One LSTM cell step written out plainly: the bitwise forward oracle.

    Feature-major like lstm's kernel: x is (p, B), h and c are (n, B), w is
    (4n, p+n) with gates i, f, o, g stacked, b is (4n,). Returns the new
    (h, c). The logistic is 0.5 * tanh(0.5 * x) + 0.5 on the unscaled
    pre-activation, which the kernel's halved rows must reproduce bit for bit.
    Leading axes on all five stack independent cells, each stepped as alone.
    """
    n = h.shape[-2]
    pre = w @ np.concatenate([x, h], axis=-2) + b[..., None]
    sig = 0.5 * np.tanh(0.5 * pre[..., : 3 * n, :]) + 0.5
    i, f, o = sig[..., :n, :], sig[..., n : 2 * n, :], sig[..., 2 * n :, :]
    g = np.tanh(pre[..., 3 * n :, :])
    c = f * c + i * g
    return o * np.tanh(c), c


def complex_teacher_loss(params: np.ndarray, p: int, n: int, window: np.ndarray):
    """Teacher-forced losses of one (l, p) window, one reference_cell_step
    at a time, under each row of a (K, P) stack of parameter vectors laid
    out like ``model.params``.

    Every operation is analytic, so complex ``params`` give the complex
    losses a complex-step derivative reads; the lstm kernels would drop the
    imaginary part into their float64 buffers.
    """
    k = len(params)
    shapes = list(_shapes(p, n).values())
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    enc_w, enc_b, dec_w, dec_b, out_w, out_b = (
        block.reshape(k, *shape)
        for block, shape in zip(np.split(params, cuts, axis=1), shapes)
    )
    l = window.shape[0]
    # row t as a (p, 1) column, a batch of one, for each of the K cells
    rows = np.broadcast_to(window[:, None, :, None], (l, k, p, 1))
    h = c = np.zeros((k, n, 1), dtype=params.dtype)
    for t in range(l):
        h, c = reference_cell_step(enc_w, enc_b, rows[t], h, c)
    total = 0.0
    # state s (the encoder's final state first) predicts row l-1-s; the
    # decoder step that makes state s is fed true row l-s
    for s in range(l):
        if s:
            h, c = reference_cell_step(dec_w, dec_b, rows[l - s], h, c)
        diff = out_w.swapaxes(1, 2) @ h + out_b[:, :, None] - rows[l - 1 - s]
        total = total + np.sum(diff * diff, axis=(1, 2))
    return total


class GradCheck(NamedTuple):
    """Worst entry of a complex-step gradient check: its relative error,
    its block's name as grad_bptt keys it, and its index there."""

    rel_err: float
    block: str
    index: tuple[int, ...]


def grad_check_max_rel_err(
    model: LstmEdModel, window: np.ndarray, step: float = 1e-30
) -> GradCheck:
    """Max relative error of BPTT gradients vs complex-step derivatives,
    for one (l, p) window, with the entry where it occurs.

    Each reference derivative is Im f(theta + i*step*e_k) / step, with f
    ``complex_teacher_loss``: no difference of two nearby losses is taken,
    so it carries no subtraction round-off, however small the entry.
    Entries where both the analytic and numeric gradient are below 1e-8 in
    magnitude count as exact matches (the relative error is undefined there).
    """
    analytic = grad_bptt(model, window[None])
    # row k steps parameter k alone: every derivative from one stacked pass,
    # bitwise those of one pass per parameter
    size = model.params.size
    params = np.tile(model.params.astype(np.complex128), (size, 1))
    params[np.arange(size), np.arange(size)] += 1j * step
    derivatives = complex_teacher_loss(
        params, model.input_dim, model.hidden_units, window
    ).imag / step
    worst = GradCheck(0.0, "", ())
    at = 0
    for name, grad in analytic.items():
        for idx in np.ndindex(grad.shape):
            numeric = derivatives[at]
            at += 1
            a = grad[idx]
            denom = max(abs(a), abs(numeric))
            if denom < 1e-8:
                continue
            rel_err = abs(a - numeric) / denom
            if rel_err > worst.rel_err:
                worst = GradCheck(rel_err, name, idx)
    return worst


def _ref_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_cell_forward(w, b, x, h_prev, c_prev):
    n = b.shape[0] // 4
    pre = np.concatenate([x, h_prev], axis=-1) @ w.T + b
    i = _ref_sigmoid(pre[..., :n])
    f = _ref_sigmoid(pre[..., n : 2 * n])
    o = _ref_sigmoid(pre[..., 2 * n : 3 * n])
    g = np.tanh(pre[..., 3 * n :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (x, h_prev, c_prev, i, f, o, g, tc)


def _ref_cell_backward(w, cache, dh, dc, dw, db):
    x, h_prev, c_prev, i, f, o, g, tc = cache
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    dpre = np.concatenate(
        [
            dct * g * i * (1.0 - i),
            dct * c_prev * f * (1.0 - f),
            do * o * (1.0 - o),
            dct * i * (1.0 - g * g),
        ],
        axis=-1,
    )
    dw += dpre.T @ np.concatenate([x, h_prev], axis=-1)
    db += dpre.sum(axis=0)
    return (dpre @ w)[..., x.shape[-1] :], dct * f


def reference_forward_backward(model: LstmEdModel, batch: np.ndarray):
    """Plain per-step BPTT: the oracle for lstm._forward_backward.

    One concatenate, three masked logistics and one weight-gradient GEMM per
    step, the readout one step at a time; returns (loss, grads).
    """
    b, l, p = batch.shape
    n = model.hidden_units
    enc, dec = model.encoder, model.decoder

    def readout(h):
        return h @ model.out_weight + model.out_bias

    h = np.zeros((b, n))
    c = np.zeros((b, n))
    enc_caches = []
    for t in range(l):
        h, c, cache = _ref_cell_forward(enc.w, enc.b, batch[:, t, :], h, c)
        enc_caches.append(cache)
    preds = np.empty_like(batch)
    states = [h]
    preds[:, l - 1, :] = readout(h)
    dec_caches = []
    for s in range(1, l):
        h, c, cache = _ref_cell_forward(dec.w, dec.b, batch[:, l - s, :], h, c)
        dec_caches.append(cache)
        states.append(h)
        preds[:, l - 1 - s, :] = readout(h)

    diff = preds - batch
    total = float(np.sum(diff * diff))
    dpred = 2.0 * diff
    grads = _blocks(np.zeros_like(model.params), p, n)
    dh = np.zeros((b, n))
    dc = np.zeros((b, n))
    for s in range(l - 1, -1, -1):
        dy = dpred[:, l - 1 - s, :]
        grads["out_w"] += states[s].T @ dy
        grads["out_b"] += dy.sum(axis=0)
        dh = dh + dy @ model.out_weight.T
        if s > 0:
            dh, dc = _ref_cell_backward(
                dec.w, dec_caches[s - 1], dh, dc, grads["dec_w"], grads["dec_b"]
            )
    for t in range(l - 1, -1, -1):
        dh, dc = _ref_cell_backward(
            enc.w, enc_caches[t], dh, dc, grads["enc_w"], grads["enc_b"]
        )
    return total, grads


def reference_train(windows, config, validation):
    """Plain per-block trainer: the oracle for lstm.train.

    Built from grad_bptt, encode, decode_train and loss alone, it spells out
    the training contract. One default_rng(seed) makes the init draws (the
    encoder's weight, the decoder's, the readout's, each uniform in
    +-1/sqrt(fan_in); biases zero but the forget gates' 1) and then each
    epoch's batch order. Each batch's gradient is clipped to
    grad_clip_norm by its global norm, summed block by block, then takes a
    bias-corrected Adam step per block. The best validation loss, the
    untrained model's as epoch 0, picks the checkpoint; patience epochs
    without a new best stop training.

    Everything runs in the dtype of ``windows``, an array of float32 or
    float64: the init draws are rounded to it, and each scalar that meets an
    array is a Python float.

    Returns (TrainResult, pre-clip gradient norm of every step).
    """
    train_batch = np.asarray(windows)
    val_batch = np.asarray(validation, dtype=train_batch.dtype)
    n_train, l, p = train_batch.shape
    n = config.c
    rng = np.random.default_rng(config.seed)
    rec_bound = 1.0 / np.sqrt(p + n)
    enc_w = rng.uniform(-rec_bound, rec_bound, size=(4 * n, p + n))
    dec_w = rng.uniform(-rec_bound, rec_bound, size=(4 * n, p + n))
    out_w = rng.uniform(-1.0 / np.sqrt(n), 1.0 / np.sqrt(n), size=(n, p))
    gate_b = np.zeros(4 * n)
    gate_b[n : 2 * n] = 1.0
    flat = [enc_w.ravel(), gate_b, dec_w.ravel(), gate_b, out_w.ravel(), np.zeros(p)]
    model = LstmEdModel(np.concatenate(flat).astype(train_batch.dtype), p, n, l)
    params = {
        "enc_w": model.encoder.w,
        "enc_b": model.encoder.b,
        "dec_w": model.decoder.w,
        "dec_b": model.decoder.b,
        "out_w": model.out_weight,
        "out_b": model.out_bias,
    }

    def teacher_forced(batch):
        return loss(decode_train(model, batch, encode(model, batch)), batch)

    def batch_loss(batch):
        # train sums a batch's squared errors in the decoder's order, steps
        # from the last row back, then columns, then windows
        preds = decode_train(model, batch, encode(model, batch))
        return loss(*(np.ascontiguousarray(a[:, ::-1].transpose(1, 2, 0)) for a in (preds, batch)))

    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    val_history = [teacher_forced(val_batch)]
    best = {k: val.copy() for k, val in params.items()}
    best_epoch = 0
    train_history = []
    norms = []
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, config.batch_size):
            batch = train_batch[order[lo : lo + config.batch_size]]
            epoch_loss += batch_loss(batch)
            grads = grad_bptt(model, batch)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            norms.append(norm)
            if norm > config.grad_clip_norm:
                grads = {k: g * (config.grad_clip_norm / norm) for k, g in grads.items()}
            step += 1
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
                m_hat = m[k] / (1.0 - 0.9**step)
                v_hat = v[k] / (1.0 - 0.999**step)
                params[k] -= m_hat / (np.sqrt(v_hat) + 1e-8) * config.learning_rate
        train_history.append(epoch_loss)
        val_history.append(teacher_forced(val_batch))
        if val_history[-1] < min(val_history[:-1]):
            best = {k: val.copy() for k, val in params.items()}
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    for k, val in best.items():
        params[k][...] = val
    return TrainResult(model, train_history, val_history, best_epoch), norms


def reference_smooth_curve(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average one cycle at a time: the smooth_curve oracle."""
    half_lo = (window - 1) // 2
    half_hi = window // 2
    n = values.shape[0]
    out = np.empty_like(values)
    for t in range(n):
        out[t] = np.mean(values[max(0, t - half_lo) : min(n, t + half_hi + 1)])
    return out


def reference_estimate_rul(candidates, config, test_len, train_lengths) -> dict:
    """The estimate_rul oracle: running sums over the candidates in Python.

    Returns the value, std_dev, spread, capped and fallback fields by name.
    """
    if not candidates:
        headroom = max(
            (max(length - test_len, 0) for length in train_lengths), default=0
        )
        return {
            "value": min(config.r_max, float(headroom)),
            "std_dev": float("nan"),
            "spread": float("nan"),
            "capped": headroom > config.r_max,
            "fallback": True,
        }
    num = 0.0
    den = 0.0
    for c in candidates:
        num += c.similarity * c.estimate
        den += c.similarity
    value = num / den
    estimates = np.array([c.estimate for c in candidates])
    capped = value > config.r_max
    return {
        "value": config.r_max if capped else value,
        "std_dev": float(np.std(estimates)),
        "spread": float(np.max(estimates) - np.min(estimates)),
        "capped": capped,
        "fallback": False,
    }


def naive_sweep_scores(ds, base, grid):
    """The run_sweep oracle: a separate build and predict_one per grid point.

    Yields each point's timeliness in grid order, so a caller also sees the
    scores made before an error. The build is looked up on edhi.pipeline at
    call time, so a monkeypatched build applies here too.
    """
    by_id = dict(ds.instances)
    fracs = list(edhi.pipeline.SWEEP_TRUNCATION_FRACS)
    for overrides in grid.combinations():
        config = apply_overrides(base, overrides)
        bundle, info = edhi.pipeline.build_pipeline(ds, config)
        val_ds = RunToFailureDataset(
            instances=[(uid, by_id[uid]) for uid in info.val_ids],
            sensor_names=ds.sensor_names,
        )
        cases = truncate_at_fracs(val_ds, fracs)
        records = []
        for (_, series), actual in zip(cases.instances, cases.rul_labels):
            est, curve = edhi.pipeline.predict_one(bundle, series)
            records.append(EvalRecord(est.value, actual, curve.length))
        yield timeliness(records, config.tau1, config.tau2)


def null_rul_records(train_ds, test_ds, r_max):
    """The null estimator's EvalRecords. It ignores the sensors: each test
    instance's estimate is the mean training life minus its observed
    cycles, floored at 0 and capped at r_max."""
    mean_life = float(np.mean([series.shape[0] for _, series in train_ds.instances]))
    return [
        EvalRecord(min(max(mean_life - len(series), 0.0), r_max), actual, len(series))
        for (_, series), actual in zip(test_ds.instances, test_ds.rul_labels)
    ]


def split_pipeline(blob: bytes) -> tuple[int, dict, bytes]:
    """(format version, parsed header, payload) of a pipeline file."""
    pos = len(MAGIC)
    version = int.from_bytes(blob[pos : pos + 4], "little")
    header_len = int.from_bytes(blob[pos + 4 : pos + 12], "little")
    start = pos + 12
    header = json.loads(blob[start : start + header_len])
    return version, header, blob[start + header_len : -32]


def join_pipeline(version: int, header: dict | bytes, payload: bytes) -> bytes:
    """A signed pipeline file, laid out as save_pipeline lays it out; a
    header given as bytes is written as it is."""
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = (
        MAGIC
        + version.to_bytes(4, "little")
        + len(header).to_bytes(8, "little")
        + header
        + payload
    )
    return body + hashlib.sha256(body).digest()


def section_past_payload(header: dict, name: str) -> dict:
    """``header`` with section ``name`` running past the end of any payload."""
    section = next(sec for sec in header["sections"] if sec["name"] == name)
    section["nbytes"] = 1 << 40
    return header


def with_float(blob: bytes, section: str, index: int, value: float) -> bytes:
    """A pipeline file with entry ``index`` of a float section set to value,
    re-signed."""
    version, header, payload = split_pipeline(blob)
    start = next(s["offset"] for s in header["sections"] if s["name"] == section)
    at = start + 8 * index
    payload = payload[:at] + np.array(value, dtype="<f8").tobytes() + payload[at + 8 :]
    return join_pipeline(version, header, payload)


def as_format_1(blob: bytes, model: LstmEdModel) -> bytes:
    """A format 3 file turned into format 1: the six LSTM sections and the
    "model" header key added, the version set to 1, the file re-signed."""
    _, header, payload = split_pipeline(blob)
    payload = bytearray(payload)
    for name, arr in _blocks(model.params, model.input_dim, model.hidden_units).items():
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        header["sections"].append(
            {
                "name": name,
                "dtype": "<f8",
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(data),
            }
        )
        payload.extend(data)
    header["model"] = {
        "hidden_units": model.hidden_units,
        "window_len": model.window_len,
        "input_dim": model.input_dim,
    }
    return join_pipeline(1, header, bytes(payload))
