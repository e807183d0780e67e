import hypothesis

hypothesis.settings.register_profile(
    "fast", max_examples=40, deadline=None, derandomize=True
)
# for a deeper run of one file: pytest --hypothesis-profile deep
hypothesis.settings.register_profile(
    "deep", max_examples=300, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("fast")
