"""Video substrate: geometry, synthetic videos, chunking, masks, regions."""
