"""Seeded end-to-end benchmark of the ``chipfire`` command line.

Modules:

- ``inputs``: seeded generators for grids, product games, posets, lattices
  and relay chains, written as the text formats the CLI reads;
- ``oracles``: answers computed without the program (numpy toppling,
  closed-form product facts, an independent game reader and explorer);
- ``workloads``: the three op mixes (``sandpile``, ``space``, ``roundtrip``);
- ``tracer``: spans around the public entry points of each layer;
- ``harness``: the closed loop that times ops and checks their outputs.
"""
