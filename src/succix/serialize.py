"""Shared on-disk framing.

Every serialized structure is one frame: an 18-byte header, then fixed
fields, then its components' frames in declared order. The header holds a
magic tag (8 bytes), the format version (1 byte), a width byte and an
element count (8 bytes little-endian); packed payloads are padded to whole
64-bit words.

A persistent class derives from Framed and declares its frame once, in
_frame(): header width and length, the fixed fields as one bytes-like
object, and the components as an ordered list of (name, component) pairs.
serialize, serialized_bytes and size_tree all walk that one list, so the
size report cannot disagree with the file. Every component is one
structure: a structure made of many small ones (the per-symbol Psi lists,
the per-document ISA tables) packs them into one frame, so each frame has
a fixed number of components. Readers stay hand-written per class,
because what follows a header depends on the data; they read fixed fields
through read_fields and header-counted payloads through read_exact, which
turn a short stream into FormatError, and check the layout they derive
against the payload sizes they read.
"""

import struct
from typing import NamedTuple

from .sizereport import SizeTree

FORMAT_VERSION = 2
HEADER_BYTES = 18

MAGIC_INTVEC = b"sxintvec"
MAGIC_BITVEC = b"sxbitvec"
MAGIC_RANK = b"sxranksp"
MAGIC_SELECT = b"sxselsup"
MAGIC_RRR = b"sxrrrvec"
MAGIC_SD = b"sxsdvec\x00"
MAGIC_WT = b"sxwavtre"
MAGIC_CSA_PSI = b"sxcsapsi"
MAGIC_CSA_WT = b"sxcsawt\x00"
MAGIC_SAMPLES = b"sxsasamp"
MAGIC_ALPHABET = b"sxalphbt"
MAGIC_DOCISA = b"sxdocisa"
MAGIC_RMQ = b"sxrmqsct"
MAGIC_INDEX = b"sxdocidx"

_HEADER = struct.Struct("<8sBBQ")


class FormatError(ValueError):
    """Raised when a frame header does not match what the reader expects."""


def write_header(f, magic, width, length):
    """Write one frame header; returns bytes written."""
    if len(magic) != 8:
        raise ValueError("magic tag must be 8 bytes")
    if not 0 <= width <= 255:
        raise ValueError("width byte out of range")
    f.write(_HEADER.pack(magic, FORMAT_VERSION, width, length))
    return HEADER_BYTES


def read_header(f, expect=None):
    """Read one frame header; returns (magic, version, width, length)."""
    raw = f.read(HEADER_BYTES)
    if len(raw) != HEADER_BYTES:
        raise FormatError("truncated frame header")
    magic, version, width, length = _HEADER.unpack(raw)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if expect is not None and magic != expect:
        raise FormatError(f"expected {expect!r}, found {magic!r}")
    return magic, version, width, length


def read_fields(f, fmt):
    """Unpack the fixed fields a struct format describes; short reads
    raise FormatError."""
    size = struct.calcsize(fmt)
    raw = f.read(size)
    if len(raw) != size:
        raise FormatError("truncated fixed fields")
    return struct.unpack(fmt, raw)


def read_exact(f, nbytes):
    """Read nbytes that a header counted; a count past the end of the
    (seekable) stream raises FormatError before anything is read."""
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if nbytes > left:
        raise FormatError(f"frame needs {nbytes} bytes, {left} left")
    return f.read(nbytes)


def peek_magic(f):
    pos = f.tell()
    raw = f.read(8)
    f.seek(pos)
    if len(raw) != 8:
        raise FormatError("truncated file")
    return raw


def payload_words(n, width):
    """Number of 64-bit payload words for n values of the given width."""
    return (n * width + 63) // 64


def serialized_bytes(n, width):
    """Exact frame size for a packed vector: header plus padded payload."""
    return HEADER_BYTES + 8 * payload_words(n, width)


class Frame(NamedTuple):
    """One structure's on-disk layout: header, fixed fields, components."""

    magic: bytes
    width: int
    length: int
    fixed: object = b""
    parts: tuple = ()


class Framed:
    """Base of every persistent structure; subclasses define _frame()."""

    _tag = None

    def _frame(self):
        raise NotImplementedError

    def serialize(self, f):
        """Write the frame; returns the number of bytes written."""
        frame = self._frame()
        written = write_header(f, frame.magic, frame.width, frame.length)
        fixed = memoryview(frame.fixed).cast("B")
        f.write(fixed)
        written += len(fixed)
        for _, part in frame.parts:
            written += part.serialize(f)
        return written

    def serialized_bytes(self):
        frame = self._frame()
        return HEADER_BYTES + memoryview(frame.fixed).nbytes + sum(
            part.serialized_bytes() for _, part in frame.parts
        )

    def size_tree(self, name=None):
        frame = self._frame()
        return SizeTree(
            name or self._tag,
            HEADER_BYTES + memoryview(frame.fixed).nbytes,
            [part.size_tree(pname) for pname, part in frame.parts],
        )
