package worker

import (
	"errors"
	"fmt"
	"sync"

	"webgpu/internal/gpusim"
)

// Container pool (§VI-B): the driver "maintains a pool of Docker
// containers which are mapped onto a fixed number of GPUs ... the
// containers are configured to have the essential tools required for the
// lab — a CUDA lab will not, for example, have the PGI OpenACC tools.
// Because we maintain a pool of containers, we can delete a container
// after a job completes and start a new container to replenish the pool."

// ErrNoImage is returned when no container image provides a job's
// required toolchains.
var ErrNoImage = errors.New("worker: no container image provides the required toolchain")

// Image describes a container image and the toolchains installed in it.
type Image struct {
	Name       string
	Toolchains map[string]bool // "cuda", "opencl", "mpi"
}

// DefaultImages is the image set a standard worker node carries. The
// PGI image provides the OpenACC toolchain, as on the paper's workers —
// "a CUDA lab will not, for example, have the PGI OpenACC tools" (§VI-B).
func DefaultImages() []Image {
	return []Image{
		{Name: "webgpu/cuda:7.0", Toolchains: map[string]bool{"cuda": true}},
		{Name: "webgpu/opencl:1.2", Toolchains: map[string]bool{"opencl": true}},
		{Name: "webgpu/pgi-openacc:15.7", Toolchains: map[string]bool{"openacc": true}},
		{Name: "webgpu/cuda-mpi:7.0", Toolchains: map[string]bool{"cuda": true, "mpi": true}},
	}
}

// Container is one sandboxed execution environment holding its own
// simulated GPU set for the duration of a job. Because each container
// owns its devices (rather than sharing the node's), pooled containers
// can execute jobs concurrently without one job's teardown resetting
// another job's device memory.
type Container struct {
	ID      string
	Image   string
	Devices []*gpusim.Device
	spent   bool
}

// Pool manages fresh containers per image.
type Pool struct {
	mu        sync.Mutex
	images    map[string]Image
	imageList []Image
	free      map[string][]*Container
	perImage  int
	nextID    int
	gpus      int // simulated GPUs per container
	created   int64
	destroyed int64
	coldStart int64 // acquisitions that had to create a container on demand
}

// NewPool builds a container pool whose containers each expose gpus
// simulated GPUs, pre-warming perImage containers per image.
func NewPool(images []Image, gpus, perImage int) *Pool {
	if gpus <= 0 {
		gpus = 1
	}
	p := &Pool{
		images:    map[string]Image{},
		imageList: images,
		free:      map[string][]*Container{},
		perImage:  perImage,
		gpus:      gpus,
	}
	for _, img := range images {
		p.images[img.Name] = img
		for i := 0; i < perImage; i++ {
			p.free[img.Name] = append(p.free[img.Name], p.createLocked(img.Name))
		}
	}
	return p
}

func (p *Pool) createLocked(image string) *Container {
	p.nextID++
	p.created++
	devs := make([]*gpusim.Device, p.gpus)
	for i := range devs {
		devs[i] = gpusim.NewDefaultDevice()
		devs[i].SetIndex(i)
	}
	return &Container{
		ID:      fmt.Sprintf("ctr-%06d", p.nextID),
		Image:   image,
		Devices: devs,
	}
}

// Capacity reports the warm-pool size — the number of jobs the node can
// hold in flight before acquisitions cold-start extra containers.
func (p *Pool) Capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.perImage * len(p.imageList)
}

// SelectImage returns the name of an image providing every required
// toolchain (a CUDA job needs "cuda", an OpenCL lab "opencl", ...).
func (p *Pool) SelectImage(toolchains []string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best string
	bestSize := 1 << 30
	for name, img := range p.images {
		ok := true
		for _, t := range toolchains {
			if !img.Toolchains[t] {
				ok = false
				break
			}
		}
		// Prefer the smallest image that satisfies the job, and break ties
		// by name for determinism.
		if ok && (len(img.Toolchains) < bestSize || (len(img.Toolchains) == bestSize && name < best)) {
			best = name
			bestSize = len(img.Toolchains)
		}
	}
	if best == "" {
		return "", fmt.Errorf("%w: need %v", ErrNoImage, toolchains)
	}
	return best, nil
}

// Acquire takes a container of the given image from the pool, creating one
// on demand (a cold start) when the pool is empty.
func (p *Pool) Acquire(image string) (*Container, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.images[image]; !ok {
		return nil, fmt.Errorf("%w: image %q not present", ErrNoImage, image)
	}
	frees := p.free[image]
	if len(frees) == 0 {
		p.coldStart++
		return p.createLocked(image), nil
	}
	c := frees[len(frees)-1]
	p.free[image] = frees[:len(frees)-1]
	return c, nil
}

// Release destroys a used container and replenishes the pool with a fresh
// one, so no job ever sees another job's container state.
func (p *Pool) Release(c *Container) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.spent {
		return
	}
	c.spent = true
	p.destroyed++
	for _, d := range c.Devices {
		d.Reset() // free any leaked device memory
	}
	if len(p.free[c.Image]) < p.perImage {
		p.free[c.Image] = append(p.free[c.Image], p.createLocked(c.Image))
	}
}

// Stats reports container churn: total created, destroyed, and cold
// starts (acquisitions that could not be served from the warm pool).
func (p *Pool) Stats() (created, destroyed, coldStarts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created, p.destroyed, p.coldStart
}
