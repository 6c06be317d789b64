"""Simulator and analysis toolkit for QKD over two-mode coherently
correlated (TMCC) laser beams.

Each name is imported from the module that defines it, as README's Layout
table lists them, so `import tmcc_qkd` alone imports neither a submodule
nor numpy.
"""
