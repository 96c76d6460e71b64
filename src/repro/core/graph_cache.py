"""Content-keyed on-disk cache for profile graphs.

An EC2-scale profile graph is expensive to construct but depends only on
``(shape, VM type set, strategy, mode)`` plus the builder generation —
the same stability argument the paper makes for score tables.  This
module persists built graphs as compressed ``.npz`` archives (packed
profile matrix + CSR adjacency, the formats
:meth:`~repro.core.graph.ProfileGraph.packed_profiles` and
:meth:`~repro.core.graph.ProfileGraph.successor_csr` already define) so
sweeps, policies and the CLI can reload one in milliseconds.

Cache-key notes:

* VM types are hashed **in declaration order** — unlike the score-table
  key, order matters here because it fixes BFS discovery order and
  therefore node ids.
* ``node_limit`` is *not* part of the key: the cached graph is complete
  regardless of the caller's bound, so a load under a tighter bound
  raises :class:`~repro.core.graph.GraphLimitExceeded` exactly like a
  fresh build would.
* ``BUILDER_CODE_VERSION`` is baked in; bump it whenever builder output
  could change, and stale entries miss instead of poisoning results.

Writes are atomic (tempfile + ``os.replace``), and any unreadable or
inconsistent entry is treated as a miss — corruption can cost a rebuild,
never a wrong graph.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.graph import (
    GraphLimitExceeded,
    ProfileGraph,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.profile import MachineShape, Usage, VMType

__all__ = [
    "GRAPH_CACHE_FORMAT",
    "BUILDER_CODE_VERSION",
    "graph_cache_key",
    "graph_cache_path",
    "save_graph",
    "load_graph",
    "load_or_build_profile_graph",
    "cache_events",
    "clear_cache_events",
]

GRAPH_CACHE_FORMAT = "repro.graph_cache.v1"

#: Generation stamp of the graph builder; part of every cache key.
BUILDER_CODE_VERSION = 2

#: Process-wide cache outcome counters (tests and benchmarks read these).
_CACHE_EVENTS: Dict[str, int] = {"hits": 0, "misses": 0, "corrupt": 0}


def cache_events() -> Dict[str, int]:
    """A snapshot of the hit/miss/corrupt counters for this process."""
    return dict(_CACHE_EVENTS)


def clear_cache_events() -> None:
    """Reset the cache outcome counters (tests use this)."""
    for key in _CACHE_EVENTS:
        _CACHE_EVENTS[key] = 0


def graph_cache_key(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy,
    mode: str = "reachable",
) -> str:
    """Stable content hash identifying one built profile graph.

    Besides the builder generation, the rank-kernel generation
    (:data:`repro.core.kernel_sweep.KERNEL_CODE_VERSION`) is baked in:
    the sweep kernel derives its level schedule from cached CSR arrays,
    so a kernel change must never be fed a graph cached under older
    assumptions.  Both versions are read at call time so a bump
    invalidates every existing entry.
    """
    from repro.core import kernel_sweep

    digest = hashlib.sha256()
    digest.update(
        f"{GRAPH_CACHE_FORMAT}:{BUILDER_CODE_VERSION}"
        f":k{kernel_sweep.KERNEL_CODE_VERSION};".encode()
    )
    for group in shape.groups:
        digest.update(
            f"{group.name}:{group.capacities}:{group.anti_collocation};".encode()
        )
    # Declaration order is significant: it drives successor enumeration
    # order and therefore node-id assignment.
    for vm in vm_types:
        digest.update(f"{vm.name}:{vm.demands};".encode())
    digest.update(f"{strategy.value}:{mode}".encode())
    return digest.hexdigest()[:24]


def graph_cache_path(cache_dir: Union[str, Path], key: str) -> Path:
    """The cache file path for a key inside a cache directory."""
    return Path(cache_dir) / f"profile_graph_{key}.npz"


def _mmap_sidecar_dir(path: Path) -> Path:
    """The uncompressed sidecar directory backing ``mmap_mode`` loads."""
    return path.with_name(path.name + ".mmap")


def _ensure_mmap_sidecar(
    path: Path,
    profiles: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> Path:
    """Extract the archive's arrays into a memory-mappable sidecar.

    ``np.load(.., mmap_mode=..)`` cannot map zipped archives, so the
    read-only path extracts each array once into ``<archive>.mmap/`` as
    plain ``.npy`` files stamped with the archive's identity
    (size + mtime); later loads map those pages directly.  Extraction
    is atomic — a temp directory renamed into place — and a lost race
    with a concurrent extractor just reuses the winner's directory.
    """
    import shutil

    sidecar = _mmap_sidecar_dir(path)
    stat = path.stat()
    stamp = {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}
    stamp_path = sidecar / "stamp.json"

    def _stamp_matches() -> bool:
        try:
            return bool(json.loads(stamp_path.read_text()) == stamp)
        except (OSError, ValueError):
            return False

    if _stamp_matches():
        return sidecar
    tmp = Path(
        tempfile.mkdtemp(dir=path.parent, prefix=sidecar.name + ".")
    )
    try:
        np.save(tmp / "profiles.npy", profiles)
        np.save(tmp / "indptr.npy", indptr)
        np.save(tmp / "indices.npy", indices)
        (tmp / "stamp.json").write_text(json.dumps(stamp))
        os.chmod(tmp, 0o777 & ~_current_umask())
        for _ in range(2):
            try:
                os.replace(tmp, sidecar)
                return sidecar
            except OSError:
                if _stamp_matches():
                    # Lost the race to a concurrent extractor of the
                    # same archive — its directory is just as good.
                    break
                # A stale sidecar blocks the rename; clear and retry.
                shutil.rmtree(sidecar, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return sidecar


def save_graph(graph: ProfileGraph, path: Union[str, Path], mode: str) -> Path:
    """Atomically persist a built graph to ``path``.

    The archive holds the packed profile matrix, the CSR adjacency and a
    JSON metadata record (format, builder version, key, counts).  A
    temporary file in the target directory is fsync-free but atomic via
    ``os.replace``, so readers never observe a partial archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    key = graph_cache_key(graph.shape, graph.vm_types, graph.strategy, mode)
    indptr, indices = graph.successor_csr()
    meta = json.dumps(
        {
            "format": GRAPH_CACHE_FORMAT,
            "code_version": BUILDER_CODE_VERSION,
            "key": key,
            "strategy": graph.strategy.value,
            "mode": mode,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
        }
    )
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(
                handle,
                meta=np.array(meta),
                profiles=graph.packed_profiles(),
                indptr=indptr,
                indices=indices,
            )
        os.chmod(tmp_name, 0o666 & ~_current_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _unpack_profiles(shape: MachineShape, matrix: np.ndarray) -> List[Usage]:
    sizes = [group.n_units for group in shape.groups]
    rows = matrix.tolist()
    profiles: List[Usage] = []
    for row in rows:
        groups: List[Tuple[int, ...]] = []
        start = 0
        for size in sizes:
            groups.append(tuple(row[start:start + size]))
            start += size
        profiles.append(tuple(groups))
    return profiles


def load_graph(
    path: Union[str, Path],
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy,
    mode: str = "reachable",
    node_limit: int = 1_000_000,
    mmap_mode: Optional[str] = None,
) -> Optional[ProfileGraph]:
    """Load a cached graph, or None on a miss.

    Misses cover: no file, unreadable archive, metadata that does not
    match the expected content key, or internally inconsistent arrays —
    all counted in :func:`cache_events` (the unreadable/inconsistent
    cases also as ``corrupt``).  A *valid* cached graph larger than
    ``node_limit`` raises :class:`GraphLimitExceeded`, mirroring what the
    equivalent fresh build would do.

    With ``mmap_mode="r"`` the packed-profile matrix and CSR arrays are
    memory-mapped read-only from the ``.mmap`` sidecar (extracted from
    the archive on first use; zipped archives themselves cannot be
    mapped), so N processes loading one cached graph share one page
    cache copy and any in-place mutation of the returned arrays raises.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            f"unsupported mmap_mode {mmap_mode!r}; use None or 'r'"
        )
    path = Path(path)
    vm_types = tuple(vm_types)
    if not path.exists():
        _CACHE_EVENTS["misses"] += 1
        return None
    expected_key = graph_cache_key(shape, vm_types, strategy, mode)
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"][()]))
            profiles_matrix = archive["profiles"]
            indptr = archive["indptr"]
            indices = archive["indices"]
        if meta.get("format") != GRAPH_CACHE_FORMAT:
            raise ValueError(f"unknown graph cache format {meta.get('format')!r}")
        if meta.get("key") != expected_key:
            # Not corruption — a key mismatch just means this file holds a
            # different (shape, vms, strategy, mode, version) build.
            _CACHE_EVENTS["misses"] += 1
            return None
        n_nodes = int(meta["n_nodes"])
        n_edges = int(meta["n_edges"])
        if profiles_matrix.shape != (n_nodes, shape.n_dimensions):
            raise ValueError("profile matrix shape mismatch")
        if indptr.shape != (n_nodes + 1,) or int(indptr[0]) != 0:
            raise ValueError("CSR indptr shape mismatch")
        if int(indptr[-1]) != n_edges or indices.shape != (n_edges,):
            raise ValueError("CSR indices length mismatch")
        if n_edges and (
            int(indices.min()) < 0 or int(indices.max()) >= n_nodes
        ):
            raise ValueError("CSR indices out of range")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("CSR indptr not monotone")
    except GraphLimitExceeded:
        raise
    except Exception:
        _CACHE_EVENTS["misses"] += 1
        _CACHE_EVENTS["corrupt"] += 1
        return None
    if n_nodes > node_limit:
        raise GraphLimitExceeded(
            f"cached profile graph has {n_nodes} nodes "
            f"(> node_limit={node_limit})"
        )
    bounds = indptr.tolist()
    flat = indices.tolist()
    successors = [
        tuple(flat[bounds[i]:bounds[i + 1]]) for i in range(n_nodes)
    ]
    graph = ProfileGraph(
        shape=shape,
        vm_types=vm_types,
        strategy=strategy,
        profiles=_unpack_profiles(shape, profiles_matrix),
        successors=successors,
    )
    if mmap_mode == "r":
        try:
            sidecar = _ensure_mmap_sidecar(
                path, profiles_matrix, indptr, indices
            )
            packed = np.load(sidecar / "profiles.npy", mmap_mode="r")
            csr = (
                np.load(sidecar / "indptr.npy", mmap_mode="r"),
                np.load(sidecar / "indices.npy", mmap_mode="r"),
            )
        except OSError:
            # Sidecar unavailable (read-only cache dir, lost race with a
            # stale extractor): fall back to the in-memory arrays, still
            # honoring the read-only contract.
            packed = np.ascontiguousarray(profiles_matrix)
            packed.flags.writeable = False
            csr = (indptr.astype(np.int64), indices.astype(np.int64))
            csr[0].flags.writeable = False
            csr[1].flags.writeable = False
    else:
        packed = np.ascontiguousarray(profiles_matrix)
        csr = (indptr.astype(np.int64), indices.astype(np.int64))
    graph.memo("packed_profiles", lambda: packed)
    graph.memo("successor_csr", lambda: csr)
    _CACHE_EVENTS["hits"] += 1
    return graph


def load_or_build_profile_graph(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
    mode: str = "reachable",
    node_limit: int = 1_000_000,
    cache_dir: Optional[Union[str, Path]] = None,
    mmap_mode: Optional[str] = None,
) -> ProfileGraph:
    """The cached graph when available, otherwise build (and cache) it.

    With ``cache_dir=None`` this is exactly :func:`build_profile_graph`.
    Otherwise the content-keyed entry under ``cache_dir`` is tried first;
    a miss builds and persists the result atomically for the next
    caller.  ``mmap_mode="r"`` maps the cached arrays read-only instead
    of copying them into the process (see :func:`load_graph`); after a
    miss, the freshly saved entry is reloaded through the same mapped
    path.
    """
    vm_types = tuple(vm_types)
    if cache_dir is None:
        return build_profile_graph(
            shape, vm_types, strategy, mode=mode,
            node_limit=node_limit,
        )
    key = graph_cache_key(shape, vm_types, strategy, mode)
    path = graph_cache_path(cache_dir, key)
    graph = load_graph(
        path, shape, vm_types, strategy, mode=mode, node_limit=node_limit,
        mmap_mode=mmap_mode,
    )
    if graph is not None:
        return graph
    graph = build_profile_graph(
        shape, vm_types, strategy, mode=mode,
        node_limit=node_limit,
    )
    save_graph(graph, path, mode)
    if mmap_mode is not None:
        mapped = load_graph(
            path, shape, vm_types, strategy, mode=mode,
            node_limit=node_limit, mmap_mode=mmap_mode,
        )
        if mapped is not None:
            return mapped
    return graph
