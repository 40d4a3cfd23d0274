"""The JSONL store format of memory, scene and checkpoint files.

Line 1 is a header object with the store's `format`, `version` 1 and, in
memory and scene stores, the record `count`; each further line is one
record object. Arrays are base64 text of little-endian float64 bytes, so
round trips are bitwise lossless. Every malformed line raises a ParseError
that names it.
"""

import base64
import dataclasses
import json

import numpy as np

from .errors import AffkitError, ParseError

VERSION = 1
# Read in 16 MB blocks. Besides fewer read calls, freeing a buffer this
# large lifts glibc's dynamic mmap threshold above the training tape's
# largest arrays (10.8 MB at the default config); below it, each train
# step maps and faults in ~240 MB afresh and runs ~20 % slower.
READ_BUFFER = 1 << 24


def encode(arr):
    """Base64 text of `arr` as little-endian float64."""
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def save(path, fmt, header, records):
    """Write the header (after `format` and `version`), then each record."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": fmt, "version": VERSION, **header}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def load(path, fmt):
    """Yield the checked header, then each record, of a `fmt` store as
    Records, reading one line at a time."""
    with open(path, "rb", buffering=READ_BUFFER) as fh:
        header = Record(fh.readline(), 1)
        if (header.fields.get("format"), header.fields.get("version")) != (
                fmt, VERSION):
            raise ParseError(f"not an {fmt} store of version {VERSION}", line=1)
        yield header
        n = 1
        for n, line in enumerate(fh, start=2):
            yield Record(line, n)
    count = header.fields.get("count", n - 1)
    if count != n - 1:
        raise ParseError(f"header count {count!r}, found {n - 1} records",
                         line=1)


def _fits(value, kind):
    """Whether a JSON value is of type `kind`; an int also fits float."""
    return (isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind))


def from_dict(cls, mapping, what, error):
    """`cls(**mapping)` for the dataclass `cls`; raises `error` if the dict
    `mapping` has a key that is no field or a value that misfits its type."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    bad = sorted((key for key, value in mapping.items() if key not in kinds
                  or not _fits(value, kinds[key])), key=str)
    if bad:
        raise error(f"{what} has unknown or mistyped keys {bad}")
    return cls(**mapping)


class Record:
    """One store line, a JSON object; its accessors raise errors naming it."""

    def __init__(self, text, line):
        try:
            self.fields = json.loads(text)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParseError(f"not a JSON line: {exc}", line=line)
        if not isinstance(self.fields, dict):
            raise ParseError(f"expected a JSON object, got "
                             f"{type(self.fields).__name__}", line=line)
        self.line = line

    def get(self, key, kind):
        """Field `key`, which must hold a value of type `kind`."""
        if key not in self.fields or not _fits(self.fields[key], kind):
            raise ParseError(f"field {key!r} is missing or not of type "
                             f"{kind}", line=self.line)
        return self.fields[key]

    def floats(self, key, size):
        """Field `key`, a list of `size` finite numbers, as a float64 array."""
        try:
            arr = np.asarray(self.get(key, list), dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"field {key!r}: {exc}", line=self.line)
        if arr.shape != (size,):
            raise ParseError(f"field {key!r} has shape {arr.shape}, "
                             f"expected ({size},)", line=self.line)
        if not np.isfinite(arr).all():
            raise ParseError(f"field {key!r} holds a non-finite value",
                             line=self.line)
        return arr

    def array(self, key, shape):
        """Field `key`, a base64 float64 payload, as an array of `shape`."""
        if not all(_fits(d, int) and d >= 0 for d in shape):
            raise ParseError(f"bad shape {shape} for {key!r}", line=self.line)
        try:
            raw = base64.b64decode(self.get(key, str), validate=True)
            return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # not base64, or a size that misfits shape
            raise ParseError(f"bad {key!r} payload: {exc}", line=self.line)

    def dataclass(self, key, cls):
        """Field `key`, a dict of every field of `cls`, as a `cls`; any error,
        the checks of `cls` included, is a ParseError naming the line."""
        mapping = self.get(key, dict)
        names = {f.name for f in dataclasses.fields(cls)}
        missing = sorted(names - set(mapping))
        if missing:
            raise ParseError(f"{key!r} lacks keys {missing}", line=self.line)
        try:
            return from_dict(cls, mapping, key, ParseError)
        except AffkitError as exc:
            raise ParseError(str(exc), line=self.line)
