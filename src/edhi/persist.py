"""Pipeline persistence: one versioned binary file, bit-exact round trips.

Layout: 8-byte magic, u32 format version, u64 header length, JSON header,
raw little-endian array payload, sha256 trailer over everything before it.
The header carries the section table (name, dtype, shape, offset, nbytes),
the run configuration, and the train instance ids; arrays are written in a
fixed section order with deterministic JSON, so saving the same pipeline
twice produces identical bytes.

Formats 2 and 3 hold only what scoring reads: the sections norm_mean,
norm_std, norm_dropped, pca_components, lr_theta, lr_theta0, and one
curve_k per train id. Format 3 has format 2's layout; its number marks
builds whose encoder-decoder trains and reconstructs in float32, so the
same settings give other bytes than a format 2 build did. Format 1 files
also carry the trained encoder-decoder (enc_*, dec_*, out_* sections and a
"model" header key). Files of every format still load, and format 1's
extras are ignored. The trained model is not part of the pipeline: take it
from ``BuildInfo.train_result.model`` when building.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .health import HiCurve
from .matching import Library
from .numerics import NormStats, OlsModel, PcaModel

MAGIC = b"EDHIPIPE"
FORMAT_VERSION = 3
# the versions load_pipeline reads, all through one path
_READABLE = (1, 2, FORMAT_VERSION)
_CHECKSUM_BYTES = 32
_REQUIRED = (
    "norm_mean",
    "norm_std",
    "norm_dropped",
    "pca_components",
    "lr_theta",
    "lr_theta0",
)


@dataclass(frozen=True, eq=False)
class PipelineBundle:
    """Everything needed to score new instances; compared by identity.

    Attributes:
        norm: Pooled normalization statistics.
        pca: Derived-sensor projection.
        lr: Linear HI map.
        hi_train_curves: The matching library of (train id, full HI
            curve) pairs, laid out once for every test curve scored
            against it.
        config: The run configuration the pipeline was built with.
    """

    norm: NormStats
    pca: PcaModel
    lr: OlsModel
    hi_train_curves: Library
    config: RunConfig

    def match_config(self) -> RunConfig:
        # matching reads lam, tau, alpha and r_max straight from the run
        # config; kept because callers outside the package use this name
        return self.config


def _sections_of(bundle: PipelineBundle) -> list[tuple[str, np.ndarray]]:
    out = [
        ("norm_mean", bundle.norm.mean),
        ("norm_std", bundle.norm.std),
        ("norm_dropped", np.array(bundle.norm.dropped, dtype=np.int64)),
        ("pca_components", bundle.pca.components),
        ("lr_theta", bundle.lr.theta),
        ("lr_theta0", np.array([bundle.lr.theta0])),
    ]
    for k, (_, curve) in enumerate(bundle.hi_train_curves):
        out.append((f"curve_{k}", curve.values))
    return out


def _dtype_of(name: str) -> str:
    return "<i8" if name == "norm_dropped" else "<f8"


def save_pipeline(path: str | Path, bundle: PipelineBundle) -> None:
    """Write the pipeline file; identical bundles give identical bytes."""
    sections = []
    payload = bytearray()
    for name, arr in _sections_of(bundle):
        dtype = _dtype_of(name)
        data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        sections.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(data),
            }
        )
        payload.extend(data)
    header = {
        "config": bundle.config.to_dict(),
        "train_ids": [uid for uid, _ in bundle.hi_train_curves],
        "sections": sections,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    body = (
        MAGIC
        + int(FORMAT_VERSION).to_bytes(4, "little")
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + bytes(payload)
    )
    digest = hashlib.sha256(body).digest()
    Path(path).write_bytes(body + digest)


def _fail(path: Path, reason: str):
    raise ValueError(f"pipeline file {path}: {reason}")


def load_pipeline(path: str | Path) -> PipelineBundle:
    """Read a format 1, 2 or 3 pipeline file, verifying it throughout.

    Raises:
        ValueError: On a wrong magic string, an unsupported format version,
            a truncated file, a checksum mismatch, a header that does not
            describe a pipeline (missing or mistyped keys, a repeated
            section or train id, sections that disagree with it or with
            each other, an invalid config), or
            values no build writes (a non-finite float, or a kept sensor
            whose std is not positive), naming the section.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 12 + _CHECKSUM_BYTES:
        _fail(path, "truncated file")
    if blob[: len(MAGIC)] != MAGIC:
        _fail(path, "bad magic, not a pipeline file")
    pos = len(MAGIC)
    version = int.from_bytes(blob[pos : pos + 4], "little")
    if version not in _READABLE:
        supported = ", ".join(map(str, _READABLE))
        _fail(path, f"unsupported version {version} (supported: {supported})")
    pos += 4
    header_len = int.from_bytes(blob[pos : pos + 8], "little")
    pos += 8
    payload_start = pos + header_len
    if len(blob) < payload_start + _CHECKSUM_BYTES:
        _fail(path, "truncated file")
    body, digest = blob[:-_CHECKSUM_BYTES], blob[-_CHECKSUM_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        _fail(path, "checksum mismatch, file is corrupted")
    try:
        header = json.loads(blob[pos:payload_start].decode("utf-8"))
    except ValueError:
        _fail(path, "unreadable header")
    try:
        return _unpack(header, blob[payload_start:-_CHECKSUM_BYTES])
    except ValueError as exc:
        _fail(path, str(exc))
    except (KeyError, IndexError, TypeError) as exc:
        _fail(path, f"malformed header ({type(exc).__name__}: {exc})")


def _unpack(header: dict, payload: bytes) -> PipelineBundle:
    """Bundle from a parsed header and its payload; extra sections ignored."""
    arrays: dict[str, np.ndarray] = {}
    for sec in header["sections"]:
        name, start, nbytes = sec["name"], sec["offset"], sec["nbytes"]
        if name in arrays:
            raise ValueError(f"duplicate section {name!r}")
        if sec["dtype"] != _dtype_of(name):
            raise ValueError(f"section {name}: dtype {sec['dtype']!r}")
        if not 0 <= start <= start + nbytes <= len(payload):
            raise ValueError(f"truncated section {name}")
        arr = np.frombuffer(payload[start : start + nbytes], dtype=sec["dtype"])
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError(f"section {name}: non-finite values")
        arrays[name] = arr.reshape(sec["shape"]).copy()

    ids = header["train_ids"]
    if not isinstance(ids, list) or not all(isinstance(uid, str) for uid in ids):
        raise ValueError("train_ids is not a list of strings")
    seen = set()
    for uid in ids:
        if uid in seen:
            raise ValueError(f"duplicate train id {uid!r}")
        seen.add(uid)
    curves = [f"curve_{k}" for k in range(len(ids))]
    missing = set(_REQUIRED).union(curves) - set(arrays)
    if missing:
        raise ValueError(f"missing sections: {sorted(missing)}")
    stray = {n for n in arrays if str(n).startswith("curve_")} - set(curves)
    if stray:
        raise ValueError(f"curve sections without a train id: {sorted(stray)}")

    mean, std, dropped, components, theta, theta0 = (arrays[n] for n in _REQUIRED)
    norm = NormStats(
        mean=mean, std=std, dropped=tuple(int(j) for j in dropped.ravel())
    )
    if not (
        dropped.ndim == 1
        and all(0 <= j < mean.size for j in norm.dropped)
        and mean.ndim == 1
        and std.shape == mean.shape
        and components.shape == (theta.size, len(norm.kept))
        and theta.ndim == 1
        and theta0.shape == (1,)
        and all(arrays[n].ndim == 1 for n in curves)
    ):
        raise ValueError("section shapes do not fit together")
    if np.any(std[list(norm.kept)] <= 0):
        raise ValueError("section norm_std: a kept sensor has std <= 0")
    return PipelineBundle(
        norm=norm,
        pca=PcaModel(components=components),
        lr=OlsModel(theta=theta, theta0=float(theta0[0])),
        hi_train_curves=Library.of(
            [(uid, HiCurve(values=arrays[n])) for uid, n in zip(ids, curves)]
        ),
        config=config_from_dict(header["config"]),
    )
