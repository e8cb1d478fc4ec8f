"""Video-owner analysis tools: persistence, masks, regions, policy estimation."""
