module webgpu/bench

go 1.22

require webgpu v0.0.0

replace webgpu => ../
