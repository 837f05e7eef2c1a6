"""Per-node state shared by descriptor-driven schemes (LNC-R, Coordinated).

Bundles a node's main :class:`~repro.cache.ncl.NCLCache` with its
:class:`~repro.cache.dcache.DescriptorCache` and implements descriptor
migration: descriptors follow objects into the main cache and fall back
to the d-cache on eviction, so frequency history survives cache churn
(paper sections 2.3-2.4).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.base import CacheEntry, CacheTooSmallError
from repro.cache.dcache import DescriptorCache
from repro.cache.ncl import NCLCache
from repro.cache.ncl_heap import HeapNCLCache
from repro.cache.descriptors import ObjectDescriptor

_NCL_STRUCTURES = ("list", "heap", "mirrored")


class DescriptorNode:
    """One node's main cache + d-cache pair.

    ``ncl_structure`` selects the NCL bookkeeping implementation: the
    default bisect ``list``, the paper's suggested lazy-deletion ``heap``
    (section 2.4) -- the two are policy-equivalent -- or ``mirrored``,
    the audit layer's differential pairing that behaves exactly like
    ``list`` while a shadow heap cross-checks every eviction decision
    (see :mod:`repro.verify.oracles`).
    """

    __slots__ = ("cache", "dcache")

    def __init__(
        self,
        capacity_bytes: int,
        dcache_entries: int,
        dcache_policy: str = "lfu",
        ncl_structure: str = "list",
    ) -> None:
        if ncl_structure not in _NCL_STRUCTURES:
            raise ValueError(f"ncl_structure must be one of {_NCL_STRUCTURES}")
        if ncl_structure == "mirrored":
            from repro.verify.oracles import MirroredNCLCache

            cache_type = MirroredNCLCache
        else:
            cache_type = NCLCache if ncl_structure == "list" else HeapNCLCache
        self.cache = cache_type(capacity_bytes)
        self.dcache = DescriptorCache(dcache_entries, policy=dcache_policy)

    def descriptor(self, object_id: int) -> Optional[ObjectDescriptor]:
        """The node's descriptor for an object, wherever it lives."""
        entry = self.cache.entry(object_id)
        if entry is not None:
            return entry.descriptor
        return self.dcache.peek(object_id)

    def record_request(self, object_id: int, now: float) -> Optional[ObjectDescriptor]:
        """Record one reference on the node's descriptor, if any.

        Returns the descriptor (with refreshed frequency) or ``None`` when
        the node has no descriptor for the object -- the situation flagged
        upstream with the paper's "no descriptor" tag.
        """
        if object_id in self.cache:
            self.cache.record_access(object_id, now)
            return self.cache.entry(object_id).descriptor
        descriptor = self.dcache.get(object_id)  # LFU reference
        if descriptor is not None:
            descriptor.record_access(now)
        return descriptor

    def update_miss_penalty(self, object_id: int, penalty: float, now: float) -> None:
        """Refresh the stored miss penalty (response-path update)."""
        if object_id in self.cache:
            self.cache.set_miss_penalty(object_id, penalty, now)
            return
        descriptor = self.dcache.peek(object_id)
        if descriptor is not None:
            descriptor.miss_penalty = penalty

    def ensure_dcache_descriptor(
        self, object_id: int, size: int, penalty: float, now: float
    ) -> ObjectDescriptor:
        """Create (or refresh) the d-cache descriptor for a passing object.

        Used on the response path when the object is not cached at this
        node (paper section 2.4).  A freshly created descriptor records the
        current reference.  When a concurrent walk has cached the object
        here meanwhile, only the cached copy's miss penalty is refreshed:
        an object never has a descriptor in both caches.
        """
        descriptor = self.dcache.peek(object_id)
        if descriptor is None:
            # A d-cache descriptor rules out a cached copy, so only its
            # absence needs the main cache checked.
            entry = self.cache.entry(object_id)
            if entry is not None:
                self.cache.set_miss_penalty(object_id, penalty, now)
                return entry.descriptor
            descriptor = ObjectDescriptor(object_id, size, miss_penalty=penalty)
            descriptor.record_access(now)
            self.dcache.insert(descriptor)
        else:
            descriptor.miss_penalty = penalty
        return descriptor

    def insert_object(
        self, object_id: int, size: int, penalty: float, now: float
    ) -> Optional[List[CacheEntry]]:
        """Insert a copy into the main cache; victims' descriptors go to the d-cache.

        The object's descriptor is pulled from the d-cache when present
        (preserving its frequency history) or freshly created.  Returns the
        evicted entries, or ``None`` when nothing was inserted: the object
        exceeds the cache capacity, or a concurrent walk has already cached
        it here (then only its miss penalty is refreshed).
        """
        descriptor = self.dcache.remove(object_id)
        if descriptor is None:
            if object_id in self.cache:
                self.cache.set_miss_penalty(object_id, penalty, now)
                return None
            descriptor = ObjectDescriptor(object_id, size, miss_penalty=penalty)
            descriptor.record_access(now)
        else:
            descriptor.miss_penalty = penalty
        try:
            evicted = self.cache.insert(descriptor, now)
        except CacheTooSmallError:
            # Put the descriptor back where it came from; the object itself
            # simply is not cacheable at this node.
            self.dcache.insert(descriptor)
            return None
        for entry in evicted:
            self.dcache.insert(entry.descriptor)
        return evicted

    def check_invariants(self) -> None:
        self.cache.check_invariants()
        self.dcache.check_invariants()
        overlap = [oid for oid in self.cache.object_ids() if oid in self.dcache]
        if overlap:
            raise AssertionError(
                f"objects present in both caches: {overlap[:5]}"
            )
