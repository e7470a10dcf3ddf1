"""Simulated digital signatures.

``sign`` binds a payload digest to the signer's key; ``verify`` checks
that binding against a public key.  Unforgeability is enforced
structurally: ``sign`` registers each issued binding in a
:class:`SignatureRegistry` keyed by (fingerprint, digest), and
``verify`` accepts only registered bindings.  An adversary who
fabricates a ``Signature`` object therefore fails verification,
matching the paper's assumption that "data messages' sources can be
identified using standard cryptographic techniques" while keeping
simulations free of real crypto cost.

Two scalability concerns shape the API:

- **Registry scope.**  A registry used to be one module-global dict
  that grew by one entry per signed message for the life of the
  process.  Long sweeps now pass their own ``registry=`` (clusters own
  one per run, so it dies with the run), and the module-level default
  registry is *bounded*: past ``DEFAULT_REGISTRY_CAPACITY`` bindings it
  evicts the oldest, which is harmless because a binding is
  deterministically recomputed on re-signing the same payload.
- **Digest memoisation.**  ``sign``/``verify`` accept a pre-computed
  ``digest=`` (see :meth:`repro.core.message.DataMessage.body_digest`)
  so relaying a message over many hops serialises its body once instead
  of once per verification.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.keys import PrivateKey, PublicKey

#: Bound on the default (module-level) registry.  Scoped registries are
#: unbounded — their lifetime is the simulation that owns them.
DEFAULT_REGISTRY_CAPACITY = 65536


def payload_digest(payload: object) -> str:
    """sha256 over the pickled payload (the signable content's digest)."""
    try:
        blob = pickle.dumps(payload)
    except Exception as exc:
        raise TypeError(f"payload is not signable: {exc}") from exc
    return hashlib.sha256(blob).hexdigest()


class SignatureRegistry:
    """Issued bindings: (key fingerprint, payload digest) -> binding.

    One registry delimits one trust domain: a signature verifies only
    against the registry it was signed into.  Simulations create one
    per run so the bookkeeping dies with the run instead of leaking
    into a module global.

    ``capacity`` bounds the registry; when full, the oldest binding is
    evicted (insertion order).  Eviction can only cause a false
    *rejection* of a very old signature, never a false acceptance.
    """

    __slots__ = ("capacity", "_issued")

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._issued: Dict[Tuple[str, str], str] = {}

    def __len__(self) -> int:
        return len(self._issued)

    def record(self, fingerprint: str, digest: str, binding: str) -> None:
        """Register one issued binding, evicting the oldest when full."""
        issued = self._issued
        if (
            self.capacity is not None
            and len(issued) >= self.capacity
            and (fingerprint, digest) not in issued
        ):
            issued.pop(next(iter(issued)))
        issued[(fingerprint, digest)] = binding

    def lookup(self, fingerprint: str, digest: str) -> Optional[str]:
        """The registered binding for (fingerprint, digest), if any."""
        return self._issued.get((fingerprint, digest))

    def clear(self) -> None:
        """Drop every recorded binding."""
        self._issued.clear()


#: The default registry used when callers do not scope their own.
#: Bounded so processes that sign forever (live clusters, long sweeps
#: on legacy code paths) cannot leak without limit.
_default_registry = SignatureRegistry(capacity=DEFAULT_REGISTRY_CAPACITY)


def default_registry() -> SignatureRegistry:
    """The module-wide bounded registry backing unscoped sign/verify."""
    return _default_registry


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature over one payload by one key."""

    signer: int
    key_fingerprint: str
    payload_digest: str
    binding: str


def sign(
    private: PrivateKey,
    payload: object,
    *,
    digest: Optional[str] = None,
    registry: Optional[SignatureRegistry] = None,
) -> Signature:
    """Sign ``payload`` with ``private``.

    ``digest`` may carry a memoised :func:`payload_digest` of the same
    payload; ``registry`` scopes the issued binding (default: the
    bounded module registry).
    """
    if digest is None:
        digest = payload_digest(payload)
    binding = hashlib.sha256(
        f"{private.fingerprint}:{private._secret}:{digest}".encode()
    ).hexdigest()
    (registry if registry is not None else _default_registry).record(
        private.fingerprint, digest, binding
    )
    return Signature(
        signer=private.owner,
        key_fingerprint=private.fingerprint,
        payload_digest=digest,
        binding=binding,
    )


def verify(
    public: PublicKey,
    payload: object,
    signature: Signature,
    *,
    digest: Optional[str] = None,
    registry: Optional[SignatureRegistry] = None,
) -> bool:
    """True iff ``signature`` was really issued over ``payload`` by ``public``.

    ``registry`` must be the one the signature was signed into — a
    signature from another trust domain fails verification.
    """
    if signature.signer != public.owner:
        return False
    if signature.key_fingerprint != public.fingerprint:
        return False
    if digest is None:
        digest = payload_digest(payload)
    if signature.payload_digest != digest:
        return False
    issued = (
        registry if registry is not None else _default_registry
    ).lookup(public.fingerprint, digest)
    return issued == signature.binding
