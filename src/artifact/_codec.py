"""Wire codec for structured payloads on unbounded rounds.

Unbounded (L) rounds may ship whole records — a neighborhood summary, or a
node's full state in the B/L swap — as `bytes` payloads, which the engine
counts at 8 bits per byte. The encoding is a protocol-4 pickle written
*without a memo*, so its bytes are a function of the value alone: pickle's
memo would write a repeated object as a back-reference, and two equal values
that share sub-objects differently (one string object used twice versus two
equal strings) would then encode to different bytes. Object identity, the
hash seed and the interpreter's string interning therefore cannot change a
payload, its size, or any digest taken over it.

"The value" includes container order as pickle sees it: dicts are written in
insertion order (which decoding preserves), sets in iteration order. No
payload in this package carries a set. A cyclic value raises ValueError.
"""

from __future__ import annotations

import io
import pickle


def obj_to_bytes(obj) -> bytes:
    """Encode *obj* as bytes that depend only on its value."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True  # no memo: repeated objects are written out in full
    pickler.dump(obj)
    return buf.getvalue()


def bytes_to_obj(data: bytes):
    """Inverse of obj_to_bytes; raises on malformed input."""
    return pickle.loads(data)
