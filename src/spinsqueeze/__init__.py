"""Spin squeezing with pulse-compiled twisting dynamics."""
