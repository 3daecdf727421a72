"""Network-based moving-object generator (Brinkhoff-style).

Brinkhoff's classic generator (GeoInformatica 2002) moves objects along a
real road network; the paper uses it with the Oldenburg and San Joaquin maps
to create streams with 10,000 initial users, fixed per-timestamp arrivals,
random quits and ≈15-second ticks (Section V-A).  We re-implement the core
mechanic from scratch:

* a **road network** is synthesised as a perturbed grid graph with random
  edge deletions and a few diagonal shortcuts (connected by construction),
  its nodes embedded in the target bounding box — structurally similar to a
  mid-size city's arterial network;
* each object spawns at a network node, draws a destination node, and walks
  the **shortest path** toward it, advancing a bounded number of edges per
  tick so discretised moves respect grid adjacency;
* on arrival the object either draws a fresh destination or quits; objects
  also quit spontaneously with a small per-tick probability — matching the
  "users randomly quit sharing their locations" dynamic;
* ``new_per_ts`` objects enter at every timestamp.

Oldenburg and SanJoaquin differ only in population dynamics and horizon,
exactly as in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid
from repro.geo.point import BoundingBox
from repro.geo.trajectory import CellTrajectory
from repro.rng import RngLike, ensure_rng
from repro.stream.stream import StreamDataset

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class BrinkhoffConfig:
    """Population dynamics and map parameters for a network dataset."""

    n_initial: int = 200
    new_per_ts: int = 10
    n_timestamps: int = 80
    k: int = 6
    graph_size: int = 14  # road network is a graph_size x graph_size lattice
    quit_prob: float = 0.02  # spontaneous per-tick quit probability
    arrival_quit_prob: float = 0.35  # quit probability on reaching destination
    edge_removal: float = 0.12  # fraction of lattice edges deleted
    diagonal_fraction: float = 0.08  # shortcut edges added
    bbox: BoundingBox = BoundingBox(0.0, 0.0, 10.0, 10.0)

    def __post_init__(self) -> None:
        if self.n_initial < 1:
            raise ConfigurationError(f"n_initial must be >= 1, got {self.n_initial}")
        if self.n_timestamps < 2:
            raise ConfigurationError(
                f"n_timestamps must be >= 2, got {self.n_timestamps}"
            )
        if self.graph_size < 2:
            raise ConfigurationError(f"graph_size must be >= 2, got {self.graph_size}")
        if not 0 <= self.quit_prob < 1:
            raise ConfigurationError(f"quit_prob must be in [0,1), got {self.quit_prob}")

    @classmethod
    def oldenburg(cls, scale: float = 0.05, k: int = 6) -> "BrinkhoffConfig":
        """Oldenburg dynamics: 10k initial, +500 per ts, 500 timestamps."""
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        return cls(
            n_initial=max(20, int(10_000 * scale)),
            new_per_ts=max(1, int(500 * scale)),
            n_timestamps=max(40, int(500 * scale * 2)),
            k=k,
            graph_size=14,
        )

    @classmethod
    def sanjoaquin(cls, scale: float = 0.05, k: int = 6) -> "BrinkhoffConfig":
        """SanJoaquin dynamics: 10k initial, +1000 per ts, 1000 timestamps."""
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        return cls(
            n_initial=max(20, int(10_000 * scale)),
            new_per_ts=max(1, int(1_000 * scale)),
            n_timestamps=max(50, int(1_000 * scale * 2)),
            k=k,
            graph_size=18,
        )


class NetworkGenerator:
    """Synthesises a road network and simulates moving objects on it."""

    def __init__(self, config: BrinkhoffConfig, rng: RngLike = None) -> None:
        self.config = config
        self.rng = ensure_rng(rng)
        self.graph = self._build_network()
        self.positions = {
            node: data["pos"] for node, data in self.graph.nodes(data=True)
        }
        self._nodes = list(self.graph.nodes)
        # Node popularity: a few attractor nodes receive extra traffic.
        weights = self.rng.random(len(self._nodes)) ** 3
        self._node_weights = weights / weights.sum()
        self._path_cache: dict[tuple, list] = {}

    # ------------------------------------------------------------------ #
    # road network construction
    # ------------------------------------------------------------------ #
    def _build_network(self) -> nx.Graph:
        # networkx is imported where it is used, so importing the package
        # (every served process does) does not pay for it.
        import networkx as nx

        cfg = self.config
        m = cfg.graph_size
        g = nx.grid_2d_graph(m, m)
        # Delete a fraction of edges without disconnecting the graph.
        edges = list(g.edges)
        self.rng.shuffle(edges)
        quota = int(len(edges) * cfg.edge_removal)
        for u, v in edges:
            if quota <= 0:
                break
            g.remove_edge(u, v)
            if nx.has_path(g, u, v):
                quota -= 1
            else:
                g.add_edge(u, v)
        # Add diagonal shortcuts (arterials).
        n_diag = int(len(edges) * cfg.diagonal_fraction)
        for _ in range(n_diag):
            r = int(self.rng.integers(0, m - 1))
            c = int(self.rng.integers(0, m - 1))
            if self.rng.random() < 0.5:
                g.add_edge((r, c), (r + 1, c + 1))
            else:
                g.add_edge((r + 1, c), (r, c + 1))
        # Embed nodes in the bounding box with positional jitter.
        bbox = cfg.bbox
        sx = bbox.width / (m - 1)
        sy = bbox.height / (m - 1)
        for r, c in g.nodes:
            jitter_x = self.rng.normal(0.0, 0.12 * sx)
            jitter_y = self.rng.normal(0.0, 0.12 * sy)
            x = min(max(bbox.min_x + c * sx + jitter_x, bbox.min_x), bbox.max_x)
            y = min(max(bbox.min_y + r * sy + jitter_y, bbox.min_y), bbox.max_y)
            g.nodes[(r, c)]["pos"] = (x, y)
        return g

    # ------------------------------------------------------------------ #
    # movement
    # ------------------------------------------------------------------ #
    def _sample_node(self):
        i = int(self.rng.choice(len(self._nodes), p=self._node_weights))
        return self._nodes[i]

    def _shortest_path(self, a, b) -> Optional[list]:
        key = (a, b)
        if key not in self._path_cache:
            import networkx as nx

            try:
                self._path_cache[key] = nx.shortest_path(self.graph, a, b)
            except nx.NetworkXNoPath:
                self._path_cache[key] = None
        return self._path_cache[key]

    def generate(self, name: str = "network") -> StreamDataset:
        """Simulate the full population and return the stream dataset."""
        cfg = self.config
        grid = Grid(cfg.bbox, cfg.k)
        trajectories: list[CellTrajectory] = []
        live: list[dict] = []
        uid = 0

        def spawn(t: int) -> dict:
            nonlocal uid
            node = self._sample_node()
            obj = {
                "node": node,
                "path": [],
                "cells": [grid.locate_xy(*self.positions[node])],
                "start": t,
                "id": uid,
            }
            uid += 1
            self._assign_destination(obj)
            return obj

        for t in range(cfg.n_timestamps):
            n_new = cfg.n_initial if t == 0 else cfg.new_per_ts
            live.extend(spawn(t) for _ in range(n_new))
            if t == cfg.n_timestamps - 1:
                break
            survivors: list[dict] = []
            for obj in live:
                if self.rng.random() < cfg.quit_prob:
                    self._finish(obj, trajectories)
                    continue
                self._advance(obj)
                arrived = not obj["path"]
                if arrived and self.rng.random() < cfg.arrival_quit_prob:
                    # Record the final position before quitting.
                    obj["cells"].append(self._cell_of(grid, obj))
                    self._finish(obj, trajectories)
                    continue
                if arrived:
                    self._assign_destination(obj)
                obj["cells"].append(self._cell_of(grid, obj))
                survivors.append(obj)
            live = survivors

        for obj in live:
            self._finish(obj, trajectories)
        dataset = StreamDataset(
            grid, trajectories, n_timestamps=cfg.n_timestamps, name=name
        )
        return dataset

    def _assign_destination(self, obj: dict) -> None:
        for _attempt in range(5):
            dest = self._sample_node()
            path = self._shortest_path(obj["node"], dest)
            if path and len(path) > 1:
                obj["path"] = list(path[1:])
                return
        obj["path"] = []

    def _advance(self, obj: dict) -> None:
        """Move up to one network edge per tick (~15 s of driving)."""
        if obj["path"]:
            obj["node"] = obj["path"].pop(0)

    def _cell_of(self, grid: Grid, obj: dict) -> int:
        cell = grid.locate_xy(*self.positions[obj["node"]])
        # Enforce grid adjacency between consecutive reports.
        return grid.snap_to_adjacent(obj["cells"][-1], cell)

    @staticmethod
    def _finish(obj: dict, out: list[CellTrajectory]) -> None:
        out.append(CellTrajectory(obj["start"], obj["cells"], user_id=obj["id"]))


def make_oldenburg(
    scale: float = 0.05, k: int = 6, seed: RngLike = 1, name: str = "Oldenburg"
) -> StreamDataset:
    """Oldenburg-configured network dataset (see Table I for full scale)."""
    gen = NetworkGenerator(BrinkhoffConfig.oldenburg(scale, k), rng=seed)
    return gen.generate(name=name)


def make_sanjoaquin(
    scale: float = 0.05, k: int = 6, seed: RngLike = 2, name: str = "SanJoaquin"
) -> StreamDataset:
    """SanJoaquin-configured network dataset (see Table I for full scale)."""
    gen = NetworkGenerator(BrinkhoffConfig.sanjoaquin(scale, k), rng=seed)
    return gen.generate(name=name)
