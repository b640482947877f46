"""Out-of-core tiered storage for the access index (the 169B-PMC problem).

The paper's real deployment identified 169 *billion* PMCs (§6); an
access corpus of that size cannot live in Python dictionaries.  This
module is the disk tier behind :class:`~repro.pmc.index.AccessIndex`:
an **append-only, seq-stamped** record store, sharded by start-address
range into mmap-friendly fixed-width segment files, with a manifest
checkpoint that makes a killed campaign resumable bit for bit.

Design (DESIGN.md §2.14):

* **Write-through** — every indexed access is appended to its shard's
  pending buffer the moment it is inserted.  Evicting a hot bucket is
  therefore free: the records are already owned by the store, and the
  index merely drops its in-memory copy.
* **Fixed-width records** — 36 little-endian bytes per access
  (:data:`RECORD`): addr, value and seq as u64, test id and interned
  instruction id as u32, size and flags as u8 (+2 pad).  Values are
  machine words (``size <= 8``), so u64 is lossless.
* **Sharding by start address** — ``addr >> shard_shift`` names the
  segment file.  A cold probe therefore reads one bounded file, not the
  whole corpus; segment parses are cached in an LRU of recently probed
  shards.
* **Seq order on disk** — appends happen in insertion order, so each
  shard file is sorted by seq.  Replaying a shard's records for one
  address through ``_Bucket.insert`` reconstructs the exact nested
  iteration order of the in-memory bucket — the property that makes a
  spilled campaign bit-identical to an in-memory one.
* **Manifest checkpoints** — ``checkpoint(seq)`` flushes pending
  buffers and publishes ``manifest.json`` whole
  (:func:`repro.durable.write_atomic`): per-shard durable lengths and
  chained content digests, the interned string table, the seq
  watermark, and the history of previous checkpoints.  Reopening a
  store truncates each segment to its manifest length and removes the
  segments it does not list (discarding torn appends), and re-inserted
  records with ``seq < durable_seq`` are skipped instead of duplicated
  — the resume path of a killed campaign recomputes its insert stream
  and converges on byte-identical segments.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.durable import write_atomic
from repro.machine.accesses import AccessType
from repro.profile.profiler import ProfiledAccess

STORE_VERSION = 1

#: One access on disk: addr, value, seq (u64), test_id, ins_id (u32),
#: size, flags (u8), 2 pad bytes.  Little-endian, 36 bytes.
RECORD = struct.Struct("<QQQIIBBxx")
RECORD_SIZE = RECORD.size

FLAG_WRITE = 0x01
FLAG_DF_LEADER = 0x02

#: Default shard granularity: one segment file per 4 KiB of address
#: space, the natural page-sized probe window.
DEFAULT_SHARD_SHIFT = 12
#: Pending records buffered in memory before an automatic flush.
DEFAULT_PENDING_LIMIT = 65_536
#: Parsed segment files kept in the recently-probed-shard LRU.
DEFAULT_SHARD_CACHE = 16

MANIFEST_NAME = "manifest.json"
_U64_MAX = (1 << 64) - 1
_U32_MAX = (1 << 32) - 1


class StoreError(RuntimeError):
    """The store cannot satisfy a request (corruption or misuse)."""


def _chain(digest: str, chunk_digest: str) -> str:
    """Advance a shard's chained content digest by one checkpoint."""
    return hashlib.sha256((digest + chunk_digest).encode()).hexdigest()


def _canonical_digest(obj: Dict) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _Shard:
    """One segment file: durable extent, record count, digest chain."""

    __slots__ = ("name", "length", "records", "digest", "_since_checkpoint")

    def __init__(self, name: str, length: int = 0, records: int = 0, digest: str = ""):
        self.name = name
        self.length = length
        self.records = records
        self.digest = digest
        # Streaming hash of bytes appended since the last checkpoint;
        # chunk boundaries (auto-flush points) do not affect it.
        self._since_checkpoint: Optional["hashlib._Hash"] = None

    def absorb(self, chunk: bytes) -> None:
        if self._since_checkpoint is None:
            self._since_checkpoint = hashlib.sha256()
        self._since_checkpoint.update(chunk)

    def seal(self) -> None:
        """Fold the since-checkpoint hash into the digest chain."""
        if self._since_checkpoint is not None:
            self.digest = _chain(self.digest, self._since_checkpoint.hexdigest())
            self._since_checkpoint = None

    def to_obj(self) -> Dict:
        return {
            "file": self.name,
            "length": self.length,
            "records": self.records,
            "digest": self.digest,
        }


class AccessStore:
    """The disk tier: append-only seq-stamped access records in shards.

    Use :meth:`open` — it adopts an existing manifest (truncating torn
    segment tails) or initialises a fresh directory.  All appends go
    through in-memory pending buffers; :meth:`flush` makes them durable
    and :meth:`checkpoint` additionally writes the manifest.
    """

    def __init__(
        self,
        root: str,
        shard_shift: int = DEFAULT_SHARD_SHIFT,
        pending_limit: int = DEFAULT_PENDING_LIMIT,
        shard_cache_size: int = DEFAULT_SHARD_CACHE,
        fingerprint: Optional[Dict] = None,
    ):
        self.root = root
        self.shard_shift = shard_shift
        self.pending_limit = pending_limit
        self.shard_cache_size = max(1, shard_cache_size)
        self.fingerprint = dict(fingerprint) if fingerprint else {}
        # (is_write, shard_id) -> _Shard
        self._shards: Dict[Tuple[bool, int], _Shard] = {}
        # (is_write, shard_id) -> {addr: [(access, test_id, seq), ...]}
        self._pending: Dict[Tuple[bool, int], Dict[int, List]] = {}
        self._pending_records = 0
        # Interned instruction strings: id order == first-seen order.
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        # Parsed durable segments, keyed like _shards; LRU by probe.
        self._cache: "OrderedDict[Tuple[bool, int], Dict[int, List]]" = OrderedDict()
        # Records with seq below this are already durable (resume skip).
        self.durable_seq = 0
        # Highest seq appended + 1; the next checkpoint's watermark.
        self._seq_watermark = 0
        # [(seq, digest), ...] — one entry per checkpoint ever taken.
        self._checkpoints: List[Tuple[int, str]] = []
        self._manifest_digest = ""
        # Tier traffic counters, surfaced as store.* obs counters.
        self.stats: Dict[str, int] = {
            "hot_hits": 0,
            "cold_probes": 0,
            "evictions": 0,
            "rebuilds": 0,
            "shard_loads": 0,
            "spilled_records": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str,
        fingerprint: Optional[Dict] = None,
        shard_shift: int = DEFAULT_SHARD_SHIFT,
        pending_limit: int = DEFAULT_PENDING_LIMIT,
        shard_cache_size: int = DEFAULT_SHARD_CACHE,
    ) -> "AccessStore":
        """Open ``root``, adopting a matching manifest or starting fresh.

        A manifest written by a campaign with a different fingerprint
        (seed, corpus budget, kernel variant) or shard geometry describes
        a different insert stream; adopting it would silently skip
        re-appends of records that are *not* on disk, so the directory is
        wiped instead.
        """
        store = cls(
            root,
            shard_shift=shard_shift,
            pending_limit=pending_limit,
            shard_cache_size=shard_cache_size,
            fingerprint=fingerprint,
        )
        os.makedirs(root, exist_ok=True)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            if (
                manifest.get("version") == STORE_VERSION
                and manifest.get("record_bytes") == RECORD_SIZE
                and manifest.get("shard_shift") == shard_shift
                and manifest.get("fingerprint") == store.fingerprint
            ):
                store._adopt(manifest)
                return store
        store._wipe()
        return store

    def _wipe(self) -> None:
        for name in os.listdir(self.root):
            if name == MANIFEST_NAME or name.endswith(".seg"):
                os.remove(os.path.join(self.root, name))

    def _adopt(self, manifest: Dict) -> None:
        """Resume from a manifest: truncate segments to durable extents."""
        self._strings = list(manifest.get("strings", []))
        self._string_ids = {s: i for i, s in enumerate(self._strings)}
        self.durable_seq = int(manifest.get("seq", 0))
        self._seq_watermark = self.durable_seq
        self._checkpoints = [
            (int(seq), digest) for seq, digest in manifest.get("checkpoints", [])
        ]
        self._manifest_digest = manifest.get("digest", "")
        for obj in manifest.get("shards", []):
            shard = _Shard(
                obj["file"],
                length=int(obj["length"]),
                records=int(obj["records"]),
                digest=obj["digest"],
            )
            if shard.length % RECORD_SIZE:
                raise StoreError(
                    f"store {self.root!r}: shard {shard.name} manifest length "
                    f"{shard.length} is not a whole number of records"
                )
            path = os.path.join(self.root, shard.name)
            actual = os.path.getsize(path) if os.path.exists(path) else 0
            if actual < shard.length:
                raise StoreError(
                    f"store {self.root!r}: shard {shard.name} is shorter "
                    f"({actual} bytes) than its manifest extent ({shard.length})"
                )
            if actual > shard.length:
                # Torn appends past the last checkpoint: discard.
                with open(path, "r+b") as handle:
                    handle.truncate(shard.length)
            is_write, shard_id = self._parse_name(shard.name)
            self._shards[(is_write, shard_id)] = shard
        adopted = {shard.name for shard in self._shards.values()}
        for name in os.listdir(self.root):
            if name.endswith(".seg") and name not in adopted:
                # Begun after the checkpoint: a re-append would follow it.
                os.remove(os.path.join(self.root, name))
        self.stats["spilled_records"] = sum(
            s.records for s in self._shards.values()
        )

    # -- naming -------------------------------------------------------------

    def _shard_name(self, is_write: bool, shard_id: int) -> str:
        side = "w" if is_write else "r"
        return f"shard_{side}_{shard_id:08x}.seg"

    @staticmethod
    def _parse_name(name: str) -> Tuple[bool, int]:
        stem = name[len("shard_") : -len(".seg")]
        side, _, shard_hex = stem.partition("_")
        return side == "w", int(shard_hex, 16)

    def shard_of(self, addr: int) -> int:
        return addr >> self.shard_shift

    # -- the write path -----------------------------------------------------

    def intern(self, ins: str) -> int:
        ins_id = self._string_ids.get(ins)
        if ins_id is None:
            ins_id = len(self._strings)
            if ins_id > _U32_MAX:
                raise StoreError("instruction string table overflow")
            self._string_ids[ins] = ins_id
            self._strings.append(ins)
        return ins_id

    def append(self, access: ProfiledAccess, test_id: int, seq: int) -> None:
        """Own one indexed access (write-through from the index).

        Appends with ``seq < durable_seq`` are the resume path replaying
        an insert stream whose prefix is already on disk — skipped, not
        duplicated.  The string table is still advanced so interned ids
        stay aligned with the durable records.
        """
        self.intern(access.ins)
        if seq >= self._seq_watermark:
            self._seq_watermark = seq + 1
        if seq < self.durable_seq:
            return
        if not 0 <= access.value <= _U64_MAX or not 0 <= access.addr <= _U64_MAX:
            raise StoreError(
                f"access at {access.addr:#x} does not fit the fixed-width "
                f"record (value={access.value!r})"
            )
        if not 0 <= test_id <= _U32_MAX:
            raise StoreError(f"test id {test_id} does not fit u32")
        is_write = access.is_write
        key = (is_write, self.shard_of(access.addr))
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = {}
        holders = pending.get(access.addr)
        if holders is None:
            pending[access.addr] = [(access, test_id, seq)]
        else:
            holders.append((access, test_id, seq))
        self._pending_records += 1
        self.stats["spilled_records"] += 1
        if self._pending_records >= self.pending_limit:
            self.flush()

    def flush(self) -> None:
        """Write every pending buffer to its segment file."""
        if not self._pending_records:
            return
        for (is_write, shard_id), by_addr in self._pending.items():
            shard = self._shards.get((is_write, shard_id))
            if shard is None:
                shard = self._shards[(is_write, shard_id)] = _Shard(
                    self._shard_name(is_write, shard_id)
                )
            # Pending is grouped by addr; disk order must be seq order.
            records = [rec for holders in by_addr.values() for rec in holders]
            records.sort(key=lambda rec: rec[2])
            chunk = b"".join(
                RECORD.pack(
                    access.addr,
                    access.value,
                    seq,
                    test_id,
                    self._string_ids[access.ins],
                    access.size,
                    (FLAG_WRITE if access.is_write else 0)
                    | (FLAG_DF_LEADER if access.df_leader else 0),
                )
                for access, test_id, seq in records
            )
            path = os.path.join(self.root, shard.name)
            with open(path, "ab") as handle:
                handle.write(chunk)
            shard.length += len(chunk)
            shard.records += len(records)
            shard.absorb(chunk)
            # The parsed-segment cache no longer matches the file.
            self._cache.pop((is_write, shard_id), None)
        self._pending.clear()
        self._pending_records = 0

    def checkpoint(self, seq: int) -> str:
        """Make everything durable and write the manifest; returns its digest.

        ``seq`` is the index's insertion watermark at the checkpoint.  A
        resumed campaign re-requesting a checkpoint the manifest already
        records (``seq <= durable_seq``) gets the recorded digest back —
        re-deriving it from current disk state would fold in data from
        *later* rounds and break the round-record equality check.
        """
        if seq < self.durable_seq or (seq == self.durable_seq and self._checkpoints):
            # A resumed campaign re-deriving a round the manifest already
            # covers: hand back the digest recorded *at that round*, not
            # one recomputed over the later rounds' durable data.  (A
            # fresh store has durable_seq == 0 and no history: a first
            # checkpoint at seq 0 — an empty round — falls through.)
            for recorded_seq, digest in self._checkpoints:
                if recorded_seq == seq:
                    return digest
            raise StoreError(
                f"store {self.root!r} has no checkpoint at seq {seq}: the "
                f"resumed campaign's insert stream diverges from the one "
                f"that wrote the manifest (wipe the spill dir to restart)"
            )
        if seq < self._seq_watermark:
            raise StoreError(
                f"checkpoint at seq {seq} but records up to "
                f"{self._seq_watermark - 1} were already appended"
            )
        self.flush()
        for shard in self._shards.values():
            shard.seal()
        self.durable_seq = seq
        self._seq_watermark = max(self._seq_watermark, seq)
        body = {
            "version": STORE_VERSION,
            "record_bytes": RECORD_SIZE,
            "shard_shift": self.shard_shift,
            "fingerprint": self.fingerprint,
            "seq": seq,
            "strings": self._strings,
            "shards": [
                shard.to_obj()
                for _key, shard in sorted(
                    self._shards.items(), key=lambda item: item[1].name
                )
            ],
        }
        digest = _canonical_digest(body)
        self._checkpoints.append((seq, digest))
        manifest = dict(body)
        manifest["checkpoints"] = [list(entry) for entry in self._checkpoints]
        manifest["digest"] = digest
        write_atomic(os.path.join(self.root, MANIFEST_NAME), json.dumps(manifest))
        self._manifest_digest = digest
        return digest

    @property
    def manifest_digest(self) -> str:
        """Digest of the most recent manifest ("" before any checkpoint)."""
        return self._manifest_digest

    # -- the read path ------------------------------------------------------

    def _segment_records(self, is_write: bool, shard_id: int) -> Dict[int, List]:
        """Parse one durable segment into {addr: [(access, test, seq)]}.

        Cached in the recently-probed-shard LRU; the cache entry is
        dropped whenever :meth:`flush` appends to the segment.
        """
        key = (is_write, shard_id)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        by_addr: Dict[int, List] = {}
        shard = self._shards.get(key)
        if shard is not None and shard.length:
            path = os.path.join(self.root, shard.name)
            with open(path, "rb") as handle:
                data = handle.read(shard.length)
            if len(data) < shard.length:
                raise StoreError(
                    f"store {self.root!r}: shard {shard.name} truncated "
                    f"below its durable extent"
                )
            strings = self._strings
            read_t, write_t = AccessType.READ, AccessType.WRITE
            for addr, value, seq, test_id, ins_id, size, flags in RECORD.iter_unpack(
                data
            ):
                access = ProfiledAccess(
                    type=write_t if flags & FLAG_WRITE else read_t,
                    addr=addr,
                    size=size,
                    value=value,
                    ins=strings[ins_id],
                    df_leader=bool(flags & FLAG_DF_LEADER),
                )
                holders = by_addr.get(addr)
                if holders is None:
                    by_addr[addr] = [(access, test_id, seq)]
                else:
                    holders.append((access, test_id, seq))
            self.stats["shard_loads"] += 1
        self._cache[key] = by_addr
        while len(self._cache) > self.shard_cache_size:
            self._cache.popitem(last=False)
        return by_addr

    def load_bucket(self, is_write: bool, addr: int) -> List:
        """All records of one (side, start address), in seq order.

        Merges the durable segment with the pending buffer; segment
        records come first (appends are monotone in seq), so the result
        replays through ``_Bucket.insert`` in original insertion order.
        """
        shard_id = self.shard_of(addr)
        records = list(self._segment_records(is_write, shard_id).get(addr, ()))
        pending = self._pending.get((is_write, shard_id))
        if pending is not None:
            records.extend(pending.get(addr, ()))
        return records

    def close(self) -> None:
        self.flush()
