import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from growgcn import (
    DataError,
    GcnLayer,
    LayerStack,
    Tensor,
    build_adjacency,
    glorot_init,
    load_checkpoint,
    make_adapter,
    normalized_laplacian,
    save_checkpoint,
    stack_forward,
)
from growgcn.checkpoint import MAGIC


def _lora_stack(f, c):
    rng = np.random.default_rng(0)
    d = 6
    inp = GcnLayer(Tensor(glorot_init(f, d, rng)))
    inp.attach_adapter(make_adapter(f, d, 2, 4.0, rng))
    inp.adapter.B.data = rng.standard_normal((2, d)).astype(np.float32) * 0.1
    mid = GcnLayer(Tensor(glorot_init(d, d, rng)))
    new = GcnLayer(Tensor(glorot_init(d, d, rng), requires_grad=True))
    return LayerStack(
        layers=[inp, mid, new],
        head=Tensor(glorot_init(d, c, rng), requires_grad=True),
        dropout_p=0.25,
        pairnorm_s=1.5,
    ).check()


def _assert_same_stack(a, b):
    la, lb = a.layers, b.layers
    assert len(la) == len(lb)
    for x, y in zip(la, lb):
        assert x.mode == y.mode
        assert np.array_equal(x.W.data, y.W.data)
        assert x.W.requires_grad == y.W.requires_grad
        assert (x.adapter is None) == (y.adapter is None)
        if x.adapter is not None:
            assert x.adapter.rank == y.adapter.rank
            assert x.adapter.alpha == y.adapter.alpha
            assert np.array_equal(x.adapter.A.data, y.adapter.A.data)
            assert np.array_equal(x.adapter.B.data, y.adapter.B.data)
    assert np.array_equal(a.head.data, b.head.data)
    assert a.dropout_p == b.dropout_p
    assert a.sgc_steps == b.sgc_steps
    assert a.row_normalize == b.row_normalize
    assert repr(a.pairnorm_s) == repr(b.pairnorm_s)


class TestRoundtrip:
    def test_lora_stack_bitwise(self, tiny_dataset, tmp_path):
        stack = _lora_stack(tiny_dataset.f, tiny_dataset.C)
        path = tmp_path / "m.ckpt"
        save_checkpoint(stack, path)
        back = load_checkpoint(path)
        _assert_same_stack(stack, back)
        L = normalized_laplacian(tiny_dataset.adjacency)
        orig = stack_forward(stack, L, tiny_dataset.X).data
        assert np.array_equal(stack_forward(back, L, tiny_dataset.X).data, orig)

    def test_sgc_stack(self, tmp_path):
        stack = LayerStack(
            head=Tensor(glorot_init(5, 3, np.random.default_rng(1)), requires_grad=True),
            sgc_steps=4,
            row_normalize=False,
        ).check()
        back = load_checkpoint(save_checkpoint(stack, tmp_path / "sgc.ckpt"))
        _assert_same_stack(stack, back)
        assert back.layers == [] and back.sgc_steps == 4

    def test_pairnorm_scale_roundtrips_as_a_float(self, tiny_dataset, tmp_path):
        stack = _lora_stack(tiny_dataset.f, tiny_dataset.C)
        stack.pairnorm_s = 0.3
        back = load_checkpoint(save_checkpoint(stack, tmp_path / "pn.ckpt"))
        assert type(back.pairnorm_s) is float and back.pairnorm_s == 0.3

    def test_file_is_stable_across_saves(self, tiny_dataset, tmp_path):
        stack = _lora_stack(tiny_dataset.f, tiny_dataset.C)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(stack, p1)
        save_checkpoint(stack, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _list_extra_array(header, name, shape):
    """List one more array after the others; returns its bytes, so the file's size fits."""
    header["arrays"].append([name, list(shape)])
    return np.ones(shape, dtype="<f4").tobytes()


class TestCorruptFiles:
    def _good_blob(self, tiny_dataset, tmp_path):
        stack = _lora_stack(tiny_dataset.f, tiny_dataset.C)
        path = tmp_path / "good.ckpt"
        save_checkpoint(stack, path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="bad magic"):
            load_checkpoint(p)

    def test_truncated(self, tiny_dataset, tmp_path):
        blob = self._good_blob(tiny_dataset, tmp_path)
        p = tmp_path / "cut.ckpt"
        p.write_bytes(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tiny_dataset, tmp_path):
        blob = self._good_blob(tiny_dataset, tmp_path)
        p = tmp_path / "tail.ckpt"
        p.write_bytes(blob + b"\x00\x00\x00")
        with pytest.raises(DataError, match="trailing bytes"):
            load_checkpoint(p)

    def test_bad_header_json(self, tmp_path):
        p = tmp_path / "hdr.ckpt"
        junk = b"{not json"
        p.write_bytes(MAGIC + struct.pack("<I", len(junk)) + junk)
        with pytest.raises(DataError, match="corrupt checkpoint header"):
            load_checkpoint(p)

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "fmt.ckpt"
        header = json.dumps({"format": 2}).encode()
        p.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError, match="unsupported checkpoint format"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_ten_byte_file(self, tmp_path):
        p = tmp_path / "short.ckpt"
        p.write_bytes(MAGIC + b"\x00\x01")
        with pytest.raises(DataError, match="truncated in header length"):
            load_checkpoint(p)

    def test_header_length_past_end(self, tmp_path):
        p = tmp_path / "long.ckpt"
        p.write_bytes(MAGIC + struct.pack("<I", 1000) + b"{}")
        with pytest.raises(DataError, match="truncated in header"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h.pop("arrays"), "KeyError: 'arrays'"),
        (lambda h: h["layers"][0].update(mode="thawed"), "unknown layer mode 'thawed'"),
        (lambda h: h.update(dropout_p=9.25), r"dropout p=9.25"),
        (lambda h: h.update(sgc_steps=1.5), "sgc_steps"),
        (lambda h: h.update(pairnorm_s=-1.0), "pairnorm scale"),
        (lambda h: h["layers"][0].update(rank=3), "rank"),
        (lambda h: h.update(arrays=7), "TypeError"),
        (lambda h: h["arrays"][0].__setitem__(1, [30]), "not 2-D"),
        (lambda h: h["arrays"][0].__setitem__(1, [5, 1e999]), "OverflowError"),
        (lambda h: h.update(sgc_steps=2), "conv layers or propagation steps, not both"),
        *[(lambda h, a=alpha: h["layers"][0].update(alpha=a),
           "adapter alpha must be a finite number") for alpha in ("abc", None, [1], 1e999)],
        *[(lambda h, s=s: h.update(pairnorm_s=s), "pairnorm scale")
          for s in (float("nan"), 1e999, True)],
        (lambda h: h.update(sgc_steps=True), "sgc_steps"),
        *[(lambda h, r=r: h.update(row_normalize=r), "row_normalize") for r in ("no", 0)],
        (lambda h: h.update(dropout_p=False), "dropout p="),
        (lambda h: h["layers"][0].update(d_in=999), r"layer 0 dims \[999, 6\] do not match"),
        (lambda h: h["layers"][1].update(d_out="x"), r"layer 1 dims \[6, 'x'\]"),
        (lambda h: h["layers"][0].update(d_in=float(h["layers"][0]["d_in"])), "layer 0 dims"),
        (lambda h: h["head"].reverse(), r"head \[\d+, 6\] do not match"),
        (lambda h: h.update(format=True), "unsupported checkpoint format"),
        (lambda h: _list_extra_array(h, "junk", [1, 1]), "not the layers' parameters"),
        (lambda h: _list_extra_array(h, "head", h["head"]), "not the layers' parameters"),
    ], ids=["no-arrays", "unknown-mode", "dropout", "sgc-steps", "pairnorm", "rank",
            "arrays-type", "flat-array", "infinite-dim", "conv-and-steps",
            "alpha-text", "alpha-null", "alpha-list", "alpha-infinite",
            "pairnorm-nan", "pairnorm-infinite", "pairnorm-bool", "sgc-steps-bool",
            "row-normalize-text", "row-normalize-int", "dropout-bool",
            "d-in", "d-out-text", "d-in-float", "head", "format-bool",
            "extra-array", "array-listed-twice"])
    def test_malformed_header_is_data_error(self, tiny_dataset, tmp_path, edit, match):
        blob = self._good_blob(tiny_dataset, tmp_path)
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + hlen])
        extra = edit(header)  # an edit that lists another array returns its bytes
        raw = json.dumps(header).encode()
        p = tmp_path / "edited.ckpt"
        p.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + blob[12 + hlen :]
                      + (extra if isinstance(extra, bytes) else b""))
        with pytest.raises(DataError, match=match):
            load_checkpoint(p)

    def test_header_not_an_object(self, tmp_path):
        p = tmp_path / "list.ckpt"
        p.write_bytes(MAGIC + struct.pack("<I", 2) + b"[]")
        with pytest.raises(DataError, match="not a JSON object"):
            load_checkpoint(p)


_JSONISH = st.sampled_from(list(b'0123456789-.e"[],:{} ntfrua'))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cut=st.one_of(st.none(), st.integers(0, 1100)),
    edits=st.lists(st.tuples(st.integers(0, 1100), st.one_of(st.integers(0, 255), _JSONISH)),
                   max_size=4),
)
def test_damaged_checkpoint_loads_or_is_data_error(tmp_path, cut, edits):
    """Truncated or byte-mutated files either load a usable stack or raise DataError."""
    stack = _lora_stack(5, 2)
    path = tmp_path / "fuzz.ckpt"
    blob = bytearray(save_checkpoint(stack, path).read_bytes())
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    path.write_bytes(bytes(blob))
    try:
        back = load_checkpoint(path)
    except DataError:
        return
    L = normalized_laplacian(build_adjacency([(0, 1), (1, 2)], 3))
    with np.errstate(all="ignore"):
        logits = stack_forward(back, L, np.ones((3, back.in_dim)))
    assert logits.shape == (3, back.head.data.shape[1])
