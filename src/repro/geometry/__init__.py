"""Computational-geometry substrate for ad hoc network deployments.

The paper's motivating setting is a wireless ad hoc network whose nodes have
physical positions (their "unique universal names (e.g. physical locations)").
This subpackage provides the geometric machinery needed to instantiate that
setting and the position-based baseline algorithms the paper's references
discuss:

* random node deployments in the unit square / unit cube,
* unit-disk connectivity graphs in 2D and 3D,
* the Gabriel-graph planar subgraph that greedy-face-greedy (GFG/GPSR)
  routing requires.
"""
