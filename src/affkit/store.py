"""The JSONL store format of memory, scene and checkpoint files.

Line 1 is a header object with the store's `format`, `version` 1 and, in
memory and scene stores, the record `count`; each further line is one
record object. Arrays are base64 text of little-endian float64 bytes, so
round trips are bitwise lossless. Every malformed line raises a ParseError
that names the file and the line.
"""

import base64
import contextlib
import dataclasses
import json

import numpy as np

from .errors import AffkitError, ParseError, SchemaError

VERSION = 1


class Base64(str):
    """Base64 text of an array. It needs no JSON escaping, so `save`
    writes it between quotes as it is."""


def encode(arr):
    """Base64 text of `arr` as little-endian float64."""
    return Base64(base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")),
                  "ascii")


def _line(rec):
    """`json.dumps(rec) + "\n"` for the dict `rec`. Each key and value is
    encoded on its own, in dict order, but Base64 values are spliced in as
    they are, which spares json's escaping scan of every payload byte."""
    parts = []
    for key, value in rec.items():
        parts += (", ", json.dumps(key), ": ")
        parts += (('"', value, '"') if isinstance(value, Base64)
                  else (json.dumps(value),))
    return "".join(["{", *parts[1:], "}\n"])


def save(path, fmt, header, records):
    """Write the header (after `format` and `version`), then each record."""
    with open(path, "w") as fh:
        fh.write(_line({"format": fmt, "version": VERSION, **header}))
        for rec in records:
            fh.write(_line(rec))


@contextlib.contextmanager
def load(path, fmt):
    """Open the `fmt` store at `path` as its checked header and an iterator
    of its records, all Records, read one line at a time. A ParseError or
    SchemaError raised in the block names the file."""
    try:
        with open(path, "rb") as fh:
            header = Record(fh.readline(), 1)
            if (header.fields.get("format"), header.fields.get("version")) != (
                    fmt, VERSION):
                raise ParseError(f"not an {fmt} store of version {VERSION}",
                                 line=1)
            yield header, _records(fh, header)
    except (ParseError, SchemaError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _records(fh, header):
    """Each further line of `fh` as a Record; then matches the header's
    `count`, if it has one, against the number of records."""
    n = 1
    for n, line in enumerate(fh, start=2):
        yield Record(line, n)
    count = header.fields.get("count", n - 1)
    if count != n - 1:
        raise ParseError(f"header count {count!r}, found {n - 1} records",
                         line=1)


# Four base64 characters of sextets a, b, c, d decode to the 3 bytes
# a << 2 | b >> 4, (b & 15) << 4 | c >> 2 and (c & 3) << 6 | d. Each pair
# of characters is looked up at once, in a table indexed by the pair's two
# bytes read as a little-endian uint16. An entry holds the pair's bits of
# the 3 bytes read as a little-endian uint32, with `_INVALID` set too if a
# character of the pair is outside the alphabet.
_INVALID = 1 << 24
_SEXTET = np.full(256, 64, np.uint32)  # 64: outside the alphabet
_SEXTET[np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                      b"0123456789+/", np.uint8)] = np.arange(64)


def _pair_table(first, second):
    """The table of a pair whose first and second characters add the bits
    `first` and `second`, by byte value; no temporary outgrows 1 KB."""
    valid = _SEXTET < 64
    return np.bitwise_or.outer(np.where(valid, second, _INVALID),
                               np.where(valid, first, _INVALID)).ravel()


_FIRST_PAIR = _pair_table(_SEXTET << 2, _SEXTET >> 4 | (_SEXTET & 15) << 12)
_SECOND_PAIR = _pair_table(_SEXTET >> 2 << 8 | (_SEXTET & 3) << 22,
                           _SEXTET << 16)


def _b64decode(text):
    """`base64.b64decode(text, validate=True)` as a uint8 array: the same
    bytes, and a ValueError for every text it rejects."""
    # Sixteen characters decode to 12 bytes, three uint32 words. The last
    # 1-16 characters, which hold any padding, go to b64decode.
    body = max(len(text) - 1, 0) // 16 * 16
    tail = base64.b64decode(text[body:], validate=True)
    n = body // 16
    # `out`, which the caller keeps, comes before the temporaries, so that
    # kept arrays do not land between the holes they leave.
    out = np.empty(12 * n + len(tail), np.uint8)
    out[12 * n:] = np.frombuffer(tail, np.uint8)
    raw = text.encode("ascii")
    pairs = np.frombuffer(raw, "<u2", count=body // 2).reshape(n, 8).T
    # (4, n), one row per group. The tables hold every uint16, so "wrap"
    # never wraps; it only takes numpy's faster bounds handling.
    groups = _FIRST_PAIR.take(pairs[0::2], mode="wrap")
    groups |= _SECOND_PAIR.take(pairs[1::2], mode="wrap")
    if groups.max(initial=0) >= _INVALID:
        raise ValueError("Only base64 data is allowed")
    # The 3 bytes of groups 0-3 fill the three words of 4 bytes in turn.
    words = out[:12 * n].view("<u4").reshape(n, 3)
    np.left_shift(groups[1], 24, out=words[:, 0])
    words[:, 0] |= groups[0]
    np.left_shift(groups[2], 16, out=words[:, 1])
    words[:, 1] |= groups[1] >> 8
    np.left_shift(groups[3], 8, out=words[:, 2])
    words[:, 2] |= groups[2] >> 16
    return out


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
        return self._finite(key, arr)

    def array(self, key, shape):
        """Field `key`, a base64 payload of finite float64 values, as an
        array of `shape`."""
        if not all(_fits(d, int) and d >= 0 for d in shape):
            raise ParseError(f"bad shape {shape} for {key!r}", line=self.line)
        try:
            arr = _b64decode(self.get(key, str)).view("<f8").reshape(shape)
        except ValueError as exc:  # not base64, or a size that misfits shape
            raise ParseError(f"bad {key!r} payload: {exc}", line=self.line)
        return self._finite(key, arr)

    def _finite(self, key, arr):
        """`arr`, the value of field `key`, if all of it is finite."""
        if not np.isfinite(arr).all():
            raise ParseError(f"field {key!r} holds a non-finite value",
                             line=self.line)
        return arr

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
