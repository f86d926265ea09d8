"""Security harness: adversary view, distinguisher, encryption model."""
