"""Rate-adaptive LiDAR point cloud streaming over an emulated bottleneck."""
