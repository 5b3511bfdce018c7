"""flowbench: the end-to-end flow benchmark (see README.md)."""
