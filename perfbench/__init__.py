"""Closed-loop benchmark of the tvdn library; see run.py for usage."""
