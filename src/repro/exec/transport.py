"""Length-prefixed message transport for distributed shard execution.

The remote executor (:mod:`repro.exec.remote`) and its worker processes
(:mod:`repro.exec.worker`) exchange pickled messages over a byte stream —
a TCP socket for the localhost/multi-host fleet, or any pair of binary
file objects.  Every message is framed as::

    4-byte magic | 8-byte big-endian payload length | pickle payload

The magic guards against a desynchronized or foreign stream (a corrupted
length prefix would otherwise make the receiver wait on gigabytes), and the
length prefix makes message boundaries explicit so a reader never has to
guess where a pickle ends.

Failure surface is typed: :class:`TransportConnectError` when a peer cannot
be reached at all (raised within the connect timeout — never a hang) and
:class:`TransportClosedError` when an established stream dies mid-message
(the remote executor treats that as a worker death and re-dispatches the
shard).  Messages are trusted — the fleet protocol is for workers the
operator started, not for untrusted peers.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "TransportError",
    "TransportConnectError",
    "TransportClosedError",
    "TransportTimeoutError",
    "Connection",
    "connect",
    "listen",
    "parse_address",
    "format_address",
]

#: Bumped whenever the message framing, the handshake or the session
#: messages change shape; parent and worker refuse to talk across versions.
#: In version 3 the parent sends nothing while a shard runs, and heartbeats
#: carry no progress count.
PROTOCOL_VERSION = 3

_MAGIC = b"RXC1"
_HEADER = struct.Struct(">4sQ")
#: Upper bound on a single frame; a length beyond this means the stream is
#: desynchronized, not that someone legitimately sent a 2 GiB shard.
_MAX_FRAME_BYTES = 1 << 31


class TransportError(RuntimeError):
    """Base class of every transport-layer failure."""


class TransportConnectError(TransportError):
    """A peer could not be reached within the connect timeout."""


class TransportClosedError(TransportError):
    """The stream died (EOF or I/O error) before a full message arrived."""


class TransportTimeoutError(TransportError):
    """A bounded read expired with no message — the peer went silent.

    Raised only while a read deadline is armed (the remote executor arms one
    per heartbeat window).  A timeout may strike mid-frame, so the stream
    must be considered desynchronized and torn down — the executor treats it
    exactly like a worker death.
    """


def parse_address(address: str) -> tuple[str, int]:
    """Split a worker address into ``(host, port)``.

    Accepted forms::

        "7070"              -> ("127.0.0.1", 7070)   # port alone: localhost
        "host:7070"         -> ("host", 7070)
        "[::1]:7070"        -> ("::1", 7070)         # bracketed IPv6

    An unbracketed address containing more than one colon is rejected:
    ``"::1:9000"`` is itself a valid IPv6 literal, so splitting it on the
    last colon would silently guess which parse was meant — IPv6 hosts must
    be bracketed, the URL convention.
    """
    text = str(address).strip()
    error = ValueError(f"invalid worker address {address!r}; expected "
                       "'host:port', 'port', or '[ipv6]:port'")
    if text.startswith("["):
        host, bracket, port = text[1:].partition("]")
        if not bracket or not host or not port.startswith(":"):
            raise error
        port = port[1:]
    elif text.count(":") > 1:
        raise ValueError(
            f"ambiguous IPv6 worker address {address!r}; bracket the host "
            "as '[ipv6]:port'")
    else:
        host, sep, port = text.rpartition(":")
        if not sep:
            host, port = "127.0.0.1", text
        if not host:
            raise error
    try:
        port_number = int(port)
    except ValueError:
        raise error from None
    if not 0 <= port_number <= 65535:
        raise error
    return host, port_number


def format_address(host: str, port: int) -> str:
    """The canonical string for ``(host, port)`` — IPv6 hosts bracketed so
    the result round-trips through :func:`parse_address`."""
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


class Connection:
    """A framed message channel over a pair of binary streams.

    Built from a socket via :meth:`from_socket` (the fleet path) or directly
    from any ``(reader, writer)`` file pair, e.g. a subprocess's stdio.
    :meth:`send`/:meth:`recv` move whole picklable messages; every I/O
    failure surfaces as a :class:`TransportClosedError` so callers handle one
    exception family.
    """

    def __init__(self, reader, writer, *, sock: socket.socket | None = None,
                 peer: str = "?"):
        self._reader = reader
        self._writer = writer
        self._sock = sock
        self.peer = peer
        self.closed = False
        # Lifetime traffic counters: plain int bumps, cheap enough to keep
        # always-on.  The remote executor publishes per-run deltas into the
        # observability registry when tracing is enabled.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    @classmethod
    def from_socket(cls, sock: socket.socket, peer: str | None = None
                    ) -> "Connection":
        if peer is None:
            try:
                host, port = sock.getpeername()[:2]
                peer = f"{host}:{port}"
            except OSError:
                peer = "?"
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # A frame larger than the write buffer leaves in two writes, its
            # header and then its payload.  With Nagle's algorithm on, the
            # payload waits for the peer's delayed ACK of the header: tens
            # of milliseconds on every such shard result.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock.makefile("rb"), sock.makefile("wb"), sock=sock,
                   peer=peer)

    def settimeout(self, timeout: float | None) -> None:
        """Bound blocking reads/writes (socket connections only).

        Used around the handshake so a peer that connects but never speaks
        cannot hang the fleet; cleared (``None``) for shard execution, whose
        duration is unbounded by design.
        """
        if self._sock is not None:
            try:
                self._sock.settimeout(timeout)
            except OSError:
                pass  # already torn down; the pending read will surface it

    def send(self, message: Any) -> None:
        """Frame and write one message, flushing the stream."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._writer.write(_HEADER.pack(_MAGIC, len(payload)))
            self._writer.write(payload)
            self._writer.flush()
        except (OSError, ValueError) as error:
            # ValueError: write to a closed file object.
            raise TransportClosedError(
                f"connection to {self.peer} died while sending: {error}"
            ) from error
        self.bytes_sent += _HEADER.size + len(payload)
        self.messages_sent += 1

    def recv(self) -> Any:
        """Read exactly one message (blocking until it fully arrives)."""
        header = self._read_exact(_HEADER.size)
        magic, length = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TransportError(
                f"bad frame magic {magic!r} from {self.peer}; the stream is "
                "desynchronized or the peer speaks another protocol")
        if length > _MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes from {self.peer} exceeds the "
                f"{_MAX_FRAME_BYTES}-byte bound; refusing a likely "
                "desynchronized stream")
        payload = self._read_exact(length)
        self.bytes_received += _HEADER.size + length
        self.messages_received += 1
        return pickle.loads(payload)

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._reader.read(remaining)
            except TimeoutError as error:
                # A deadline armed via settimeout() expired.  The read may
                # have stopped mid-frame, so the stream cannot be resumed.
                raise TransportTimeoutError(
                    f"no message from {self.peer} within the read deadline"
                ) from error
            except (OSError, ValueError) as error:
                raise TransportClosedError(
                    f"connection to {self.peer} died while receiving: "
                    f"{error}") from error
            if not chunk:
                raise TransportClosedError(
                    f"connection to {self.peer} closed mid-message "
                    f"({count - remaining}/{count} bytes received)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def shutdown(self) -> None:
        """Abort in-flight blocking reads from *another* thread.

        ``close()`` is not safe for that: closing a socket's buffered file
        object contends on the lock the blocked ``read`` holds, and closing
        the fd alone does not wake a blocked ``recv``.  A socket
        ``shutdown(SHUT_RDWR)`` does — the blocked reader returns EOF and
        surfaces a :class:`TransportClosedError`.
        """
        self.closed = True
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        """Tear the stream down; safe to call twice."""
        self.closed = True
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Connection(peer={self.peer!r}, closed={self.closed})"


def connect(address: str | tuple[str, int], timeout: float = 10.0,
            retry_interval: float = 0.05) -> Connection:
    """Dial a peer, retrying refused connections until ``timeout``.

    The retry loop absorbs the startup race of a worker that is still
    binding its listening socket; a peer that never comes up surfaces as a
    :class:`TransportConnectError` when the deadline passes — a typed error,
    never a hang.
    """
    host, port = parse_address(address) if isinstance(address, str) \
        else address
    deadline = time.monotonic() + timeout
    while True:
        budget = deadline - time.monotonic()
        try:
            sock = socket.create_connection((host, port),
                                            timeout=max(budget, 0.01))
            sock.settimeout(None)
            return Connection.from_socket(sock, peer=f"{host}:{port}")
        except OSError as error:
            if time.monotonic() + retry_interval >= deadline:
                raise TransportConnectError(
                    f"cannot reach worker at {host}:{port} within "
                    f"{timeout:.1f}s: {error}") from error
            time.sleep(retry_interval)


def listen(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A listening socket for workers to dial into (port 0: OS-assigned)."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen()
    return sock
