"""Single-file binary checkpoints for layer stacks.

Layout, in order:

    bytes 0..7    magic b"GCNSTCK1"
    bytes 8..11   uint32 little-endian: length of the JSON header
    header        UTF-8 JSON (see _header below)
    arrays        row-major float32 little-endian, concatenated in the
                  order the header's "arrays" list declares: for each conv
                  layer (layer 0 first) W, then A and B when the layer has an
                  adapter; the head last.
"""

import json
import struct

import numpy as np

from .autodiff import Tensor
from .errors import DataError
from . import layers as ly

MAGIC = b"GCNSTCK1"
# the LayerStack settings the header holds by field name, in header order
SETTINGS = ("dropout_p", "pairnorm_s", "sgc_steps", "row_normalize")


def _header(stack):
    layers = []
    for layer in stack.layers:
        entry = {"mode": layer.mode, "d_in": layer.d_in, "d_out": layer.d_out}
        if layer.adapter is not None:
            entry["rank"] = layer.adapter.rank
            entry["alpha"] = layer.adapter.alpha
        layers.append(entry)
    return {
        "format": 1,
        "layers": layers,
        "head": list(stack.head.data.shape),
        **{k: getattr(stack, k) for k in SETTINGS},
        "arrays": [[name, list(t.data.shape)] for name, t in stack.named_parameters()],
    }


def save_checkpoint(stack, path):
    header = json.dumps(_header(stack)).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for t in stack.parameters():
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    return path


def load_checkpoint(path):
    """Read a stack back; any malformed file raises DataError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise DataError(str(e), file=path) from e
    if blob[:8] != MAGIC:
        raise DataError("not a checkpoint (bad magic)", file=path)
    if len(blob) < 12:
        raise DataError("checkpoint truncated in header length", file=path)
    (hlen,) = struct.unpack("<I", blob[8:12])
    if 12 + hlen > len(blob):
        raise DataError("checkpoint truncated in header", file=path)
    try:
        header = json.loads(blob[12 : 12 + hlen].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"corrupt checkpoint header: {e}", file=path) from e
    if not isinstance(header, dict):
        raise DataError("checkpoint header is not a JSON object", file=path)
    if type(header.get("format")) is not int or header["format"] != 1:
        raise DataError(f"unsupported checkpoint format {header.get('format')}", file=path)
    try:
        return _stack_from(header, blob, 12 + hlen, path)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        # a header that parses as JSON but does not describe a valid stack
        raise DataError(f"malformed checkpoint header ({type(e).__name__}: {e})", file=path) from e


def _stack_from(header, blob, offset, path):
    data = {}
    for name, shape in header["arrays"]:
        if len(shape) != 2:
            raise ValueError(f"array {name} is not 2-D")
        count = int(np.prod(shape))
        end = offset + 4 * count
        if end > len(blob):
            raise DataError(f"checkpoint truncated in array {name}", file=path)
        data[name] = np.frombuffer(blob[offset:end], dtype="<f4").reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise DataError(f"{len(blob) - offset} trailing bytes after arrays", file=path)

    layers = []
    for i, entry in enumerate(header["layers"]):
        mode = entry["mode"]
        if mode not in ly.MODES:
            raise DataError(f"unknown layer mode {mode!r}", file=path)
        w = Tensor(data[f"layer{i}.W"], requires_grad=(mode == "trainable"))
        _check_dims(f"layer {i} dims", [entry["d_in"], entry["d_out"]], w.data.shape)
        adapter = None
        if mode == "frozen_lora":
            adapter = ly.LoraAdapter(
                A=Tensor(data[f"layer{i}.A"], requires_grad=True),
                B=Tensor(data[f"layer{i}.B"], requires_grad=True),
                rank=entry["rank"],
                alpha=entry["alpha"],
            )
        layers.append(ly.GcnLayer(w, adapter=adapter))

    _check_dims("head", header["head"], data["head"].shape)
    stack = ly.LayerStack(layers=layers, head=Tensor(data["head"], requires_grad=True),
                          **{k: header[k] for k in SETTINGS})
    listed = [name for name, _ in header["arrays"]]
    if listed != [name for name, _ in stack.named_parameters()]:
        raise DataError(f"the header's arrays {listed} are not the layers' parameters in "
                        "order", file=path)
    return stack.check()


def _check_dims(what, dims, shape):
    """Raise ValueError unless a header's ``dims`` are ``shape``'s ints, not bools or floats."""
    if [type(v) for v in dims] != [int] * len(shape) or list(dims) != list(shape):
        raise ValueError(f"{what} {dims!r} do not match the array's shape {shape}")
