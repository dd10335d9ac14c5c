"""Geolocation and risk scoring — what grew out of the paper's "ready to
be grown" conclusion.  The code lives in ``repro.policy`` (``geo``,
``risk``) and ``repro.pam.modules.geo``; the directory keeps its name so
the test ids stay stable.
"""
