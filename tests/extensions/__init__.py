"""Geolocation and risk scoring — what grew out of the paper's "ready to
be grown" conclusion.  The code lives in ``repro.policy`` (``geo``,
``risk``); the directory keeps its name so the test ids stay stable.
"""
