"""Settings shared by the whole suite.

Every hypothesis property runs 50 derandomized examples without a
deadline, so that the suite repeats exactly from run to run.
"""
from hypothesis import settings

settings.register_profile("shiftfem", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("shiftfem")
