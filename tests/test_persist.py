"""Tests for the pipeline file format: lossless, deterministic, hard-failing."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edhi.config import RunConfig
from edhi.data import RunToFailureDataset
from edhi.health import HiCurve
from edhi.lstm import LstmParams, LstmState
from edhi.matching import Library
from edhi.numerics import NormStats, OlsModel, PcaModel
from edhi.persist import (
    FORMAT_VERSION,
    MAGIC,
    PipelineBundle,
    load_pipeline,
    save_pipeline,
)
from edhi.pipeline import predict_one
from helpers import (
    as_format_1,
    join_pipeline,
    section_past_payload,
    split_pipeline,
    with_float,
)

LSTM_SECTIONS = {"enc_w", "enc_b", "dec_w", "dec_b", "out_w", "out_b"}


def _bundle(seed=0):
    rng = np.random.default_rng(seed)
    return PipelineBundle(
        norm=NormStats(
            mean=rng.normal(size=5), std=rng.uniform(0.5, 2.0, size=5), dropped=(1, 3)
        ),
        pca=PcaModel(components=rng.normal(size=(2, 3))),
        lr=OlsModel(theta=rng.normal(size=2), theta0=0.37),
        hi_train_curves=Library.of(
            [
                ("u1", HiCurve(values=rng.uniform(0, 1, size=12))),
                ("u2", HiCurve(values=rng.uniform(0, 1, size=9))),
            ]
        ),
        config=RunConfig(p=2, c=3, l=4),
    )


# records that hold arrays, each built twice from equal parts
_ARRAY_RECORDS = {
    "HiCurve": lambda: HiCurve(values=np.ones(3)),
    "PcaModel": lambda: PcaModel(components=np.eye(2)),
    "OlsModel": lambda: OlsModel(theta=np.ones(2), theta0=0.0),
    "NormStats": lambda: NormStats(mean=np.zeros(3), std=np.ones(3), dropped=(1,)),
    "PipelineBundle": _bundle,
    "RunToFailureDataset": lambda: RunToFailureDataset([("a", np.ones((3, 2)))]),
    "LstmParams": lambda: LstmParams(w=np.ones((4, 3)), b=np.ones(4)),
    "LstmState": lambda: LstmState(hidden=np.ones((1, 2)), cell=np.ones((1, 2))),
}


@pytest.mark.parametrize("make", _ARRAY_RECORDS.values(), ids=_ARRAY_RECORDS.keys())
def test_records_holding_arrays_compare_by_identity(make):
    # distinct but equal arrays neither raise nor compare equal
    one, other = make(), make()
    assert (one == other) is False
    assert (one != other) is True
    assert one == one


class TestRoundTrip:
    def test_bitwise_lossless(self, tmp_path):
        bundle = _bundle()
        path = tmp_path / "pipe.bin"
        save_pipeline(path, bundle)
        back = load_pipeline(path)

        np.testing.assert_array_equal(back.norm.mean, bundle.norm.mean)
        np.testing.assert_array_equal(back.norm.std, bundle.norm.std)
        assert back.norm.dropped == bundle.norm.dropped
        np.testing.assert_array_equal(back.pca.components, bundle.pca.components)
        np.testing.assert_array_equal(back.lr.theta, bundle.lr.theta)
        assert back.lr.theta0 == bundle.lr.theta0
        assert [uid for uid, _ in back.hi_train_curves] == ["u1", "u2"]
        for (_, a), (_, b) in zip(back.hi_train_curves, bundle.hi_train_curves):
            np.testing.assert_array_equal(a.values, b.values)
        assert back.config == bundle.config

    def test_identical_bundles_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pipeline(a, _bundle())
        save_pipeline(b, _bundle())
        assert a.read_bytes() == b.read_bytes()

    def test_no_curves_edge_case(self, tmp_path):
        bundle = _bundle()
        bare = PipelineBundle(
            norm=bundle.norm,
            pca=bundle.pca,
            lr=bundle.lr,
            hi_train_curves=Library.of([]),
            config=bundle.config,
        )
        path = tmp_path / "bare.bin"
        save_pipeline(path, bare)
        assert len(load_pipeline(path).hi_train_curves) == 0


class TestCorruption:
    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_pipeline(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_pipeline(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC) : len(MAGIC) + 4] = (FORMAT_VERSION + 7).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"unsupported version 10 \(supported: 1, 2, 3\)"):
            load_pipeline(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(ValueError, match="truncated|checksum"):
            load_pipeline(path)

    def test_dropped_sensor_out_of_range(self, tmp_path):
        bundle = _bundle()
        bad = PipelineBundle(
            norm=NormStats(mean=bundle.norm.mean, std=bundle.norm.std, dropped=(1, 9)),
            pca=PcaModel(components=np.ones((2, 4))),
            lr=bundle.lr,
            hi_train_curves=bundle.hi_train_curves,
            config=bundle.config,
        )
        path = tmp_path / "pipe.bin"
        save_pipeline(path, bad)
        with pytest.raises(ValueError, match="shapes do not fit"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "section, index, value, reason",
        [
            ("norm_std", 0, 0.0, "section norm_std: a kept sensor has std <= 0"),
            ("norm_std", 4, -1.0, "section norm_std: a kept sensor has std <= 0"),
            ("norm_std", 2, np.nan, "section norm_std: non-finite values"),
            ("norm_mean", 2, np.inf, "section norm_mean: non-finite values"),
            ("pca_components", 5, np.nan, "section pca_components: non-finite"),
            ("lr_theta", 1, np.inf, "section lr_theta: non-finite values"),
            ("lr_theta0", 0, -np.inf, "section lr_theta0: non-finite values"),
            ("curve_1", 3, np.nan, "section curve_1: non-finite values"),
        ],
    )
    def test_signed_file_with_bad_value(self, tmp_path, section, index, value, reason):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        path.write_bytes(with_float(path.read_bytes(), section, index, value))
        with pytest.raises(ValueError, match=f"pipeline file {path}: {reason}"):
            load_pipeline(path)

    def test_dropped_sensor_may_have_zero_std(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())  # sensors 1 and 3 are dropped
        path.write_bytes(with_float(path.read_bytes(), "norm_std", 1, 0.0))
        assert load_pipeline(path).norm.std[1] == 0.0

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "pipe.bin"
        path.write_bytes(b"short")
        with pytest.raises(ValueError, match="truncated"):
            load_pipeline(path)


def assert_bundles_equal(a: PipelineBundle, b: PipelineBundle) -> None:
    np.testing.assert_array_equal(a.norm.mean, b.norm.mean)
    np.testing.assert_array_equal(a.norm.std, b.norm.std)
    assert a.norm.dropped == b.norm.dropped
    np.testing.assert_array_equal(a.pca.components, b.pca.components)
    np.testing.assert_array_equal(a.lr.theta, b.lr.theta)
    assert a.lr.theta0 == b.lr.theta0
    assert [uid for uid, _ in a.hi_train_curves] == [
        uid for uid, _ in b.hi_train_curves
    ]
    for (_, ca), (_, cb) in zip(a.hi_train_curves, b.hi_train_curves):
        np.testing.assert_array_equal(ca.values, cb.values)
    assert a.config == b.config


class TestFormat:
    def test_saved_file_is_v3_without_lstm(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        version, header, _ = split_pipeline(path.read_bytes())
        assert version == FORMAT_VERSION == 3
        assert "model" not in header
        names = {sec["name"] for sec in header["sections"]}
        assert names.isdisjoint(LSTM_SECTIONS)
        assert names == {
            "norm_mean", "norm_std", "norm_dropped", "pca_components",
            "lr_theta", "lr_theta0", "curve_0", "curve_1",
        }

    def test_surgery_helpers_round_trip(self, tmp_path):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        blob = path.read_bytes()
        assert join_pipeline(*split_pipeline(blob)) == blob

    def test_v2_file_loads_to_the_same_bundle(self, tmp_path):
        # format 3 keeps format 2's layout: only the version number differs
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        _, header, payload = split_pipeline(path.read_bytes())
        v2 = tmp_path / "v2.bin"
        v2.write_bytes(join_pipeline(2, header, payload))
        assert split_pipeline(v2.read_bytes())[0] == 2
        assert_bundles_equal(load_pipeline(v2), load_pipeline(path))
        assert_bundles_equal(load_pipeline(v2), _bundle())

    def test_v1_file_loads_and_predicts_identically(
        self, tmp_path, tiny_ds, tiny_build
    ):
        bundle, info = tiny_build
        v3 = tmp_path / "v3.edhi"
        save_pipeline(v3, bundle)
        v1 = tmp_path / "v1.edhi"
        v1.write_bytes(as_format_1(v3.read_bytes(), info.train_result.model))
        version, header, _ = split_pipeline(v1.read_bytes())
        assert version == 1 and "model" in header
        assert LSTM_SECTIONS <= {sec["name"] for sec in header["sections"]}

        from_v1, from_v3 = load_pipeline(v1), load_pipeline(v3)
        assert_bundles_equal(from_v1, bundle)
        assert_bundles_equal(from_v1, from_v3)
        for uid, series in tiny_ds.instances:
            cut = series[: series.shape[0] // 2]
            est1, curve1 = predict_one(from_v1, cut)
            est2, curve2 = predict_one(from_v3, cut)
            assert est1.value == est2.value, uid
            assert est1.candidates == est2.candidates, uid
            np.testing.assert_array_equal(curve1.values, curve2.values)


def _paths(node, prefix=()):
    """Every path into a parsed JSON header, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutated(header, path, replacement):
    """A copy of header with the value at path deleted (replacement None)
    or replaced."""
    out = copy.deepcopy(header)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return out


def _wrong_types(value):
    # a string slot gets a non-string; anything else gets a string or an
    # empty container, none of which a pipeline header holds there
    if isinstance(value, str):
        return [7, [], {}, False]
    return [v for v in ("x", [], {}) if v != value]


class TestMalformedHeader:
    """A header with a valid checksum that does not describe a pipeline."""

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda h: h.pop("sections"), id="no-sections"),
            pytest.param(lambda h: h["train_ids"].append("u9"), id="extra-train-id"),
            pytest.param(lambda h: h["train_ids"].pop(), id="missing-train-id"),
            pytest.param(lambda h: h["config"].update(p="x"), id="p-is-a-string"),
            pytest.param(lambda h: h["config"].pop("tau"), id="no-tau"),
            pytest.param(
                lambda h: h["sections"][0].update(shape=[1, 5]), id="2d-norm-mean"
            ),
        ],
    )
    def test_reported_cases(self, tmp_path, edit):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        version, header, payload = split_pipeline(path.read_bytes())
        edit(header)
        path.write_bytes(join_pipeline(version, header, payload))
        with pytest.raises(ValueError, match=f"pipeline file {path}"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(
                lambda h: h["train_ids"].__setitem__(1, h["train_ids"][0]),
                "duplicate train id 'u1'",
                id="repeated-train-id",
            ),
            pytest.param(
                lambda h: h["sections"].append(dict(h["sections"][0])),
                "duplicate section 'norm_mean'",
                id="repeated-section",
            ),
        ],
    )
    def test_duplicate_is_named(self, tmp_path, edit, reason):
        # each edit keeps every section readable, so only the repeat is wrong
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        version, header, payload = split_pipeline(path.read_bytes())
        edit(header)
        path.write_bytes(join_pipeline(version, header, payload))
        with pytest.raises(ValueError) as err:
            load_pipeline(path)
        assert str(err.value) == f"pipeline file {path}: {reason}"

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda h: b"{not json", "unreadable header", id="not-json"),
            pytest.param(
                lambda h: section_past_payload(h, "lr_theta"),
                "truncated section lr_theta",
                id="section-past-payload",
            ),
        ],
    )
    def test_signed_but_unreadable_is_named(self, tmp_path, edit, reason):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        version, header, payload = split_pipeline(path.read_bytes())
        path.write_bytes(join_pipeline(version, edit(header), payload))
        with pytest.raises(ValueError) as err:
            load_pipeline(path)
        assert str(err.value) == f"pipeline file {path}: {reason}"

    @given(st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_deleted_or_retyped_key_raises_value_error(self, tmp_path, data):
        path = tmp_path / "pipe.bin"
        save_pipeline(path, _bundle())
        version, header, payload = split_pipeline(path.read_bytes())
        target = data.draw(st.sampled_from(list(_paths(header))))
        value = header
        for key in target:
            value = value[key]
        choices = _wrong_types(value) + ([None] if target else [])
        replacement = data.draw(st.sampled_from(choices))
        mutated = _mutated(header, target, replacement) if target else replacement
        path.write_bytes(join_pipeline(version, mutated, payload))
        with pytest.raises(ValueError, match=f"pipeline file {path}"):
            load_pipeline(path)
