"""File formats: the binary matrix container and JSON loading.

Container layout: an 8-byte little-endian header length, a UTF-8 JSON
header describing the payload (array names and shapes, plus free-form
metadata), then the arrays concatenated as little-endian float64 row-major.
JSON configs map one to one onto the dataclass fields: callers build
InstanceSpec(**d) and AlgorithmConfig(**d), so an unknown key is a
TypeError.
"""

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datagen import InstanceSpec, ProblemInstance


def write_container(path: Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = dict(meta)
    header["arrays"] = [
        {"name": name, "rows": int(arr.shape[0]), "cols": int(arr.shape[1])}
        for name, arr in arrays.items()
    ]
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        arrays = {}
        for entry in header.pop("arrays"):
            rows, cols = entry["rows"], entry["cols"]
            buf = fh.read(rows * cols * 8)
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
    return header, arrays


def write_instance(path: Path, inst: ProblemInstance) -> None:
    write_container(path, {"kind": "instance", "spec": asdict(inst.spec)},
                    {"Y": inst.y, "A_ref": inst.a_ref, "S_ref": inst.s_ref,
                     "Z": inst.z})


def read_instance(path: Path) -> ProblemInstance:
    header, arrays = read_container(path)
    spec = InstanceSpec(**header["spec"])
    return ProblemInstance(arrays["Y"], arrays["A_ref"], arrays["S_ref"],
                           arrays["Z"], spec)


def write_factors(path: Path, a: np.ndarray, s: np.ndarray,
                  meta: dict | None = None) -> None:
    write_container(path, {"kind": "factors", **(meta or {})}, {"A": a, "S": s})


def read_factors(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, arrays = read_container(path)
    return arrays["A"], arrays["S"]


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
