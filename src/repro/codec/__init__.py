"""Canonical binary codec for every wire message in the system.

The simulator moves Python objects and only *accounts* bytes via
``wire_size``; the TCP runtime, however, puts real bytes on real sockets.
This package gives every message type a canonical, versioned binary
encoding so the runtime does not depend on pickle:

* :mod:`repro.codec.primitives` — length-prefixed byte strings, varints,
  and struct helpers shared by all encoders;
* :mod:`repro.codec.registry` — the type-tag registry and the public
  :func:`encode_message` / :func:`decode_message` entry points, covering
  the broadcast, coin, link and catch-up messages plus the payload types
  (vertices, blocks).
"""

from repro.codec.registry import decode_message, encode_message

__all__ = ["decode_message", "encode_message"]
