//go:build goexperiment.synctest

// synctest needs the timers of Go 1.23, which go.mod's go 1.22 turns off.
//go:debug asynctimerchan=0

package devsession

import (
	"testing"
	"testing/synctest"
	"time"

	"webgpu/internal/clock"
)

// TestPickupSpacingInSynctest runs TestPickupSpacing's rows on clock.Real
// inside a synctest bubble, advancing by sleeping: the runtime's fake time
// stands in for clock.Manual, and every row must see the same exact waits.
// It cross-checks Manual against real timers. Run it with
// GOEXPERIMENT=synctest go test -run TestPickupSpacingInSynctest ./internal/devsession/
func TestPickupSpacingInSynctest(t *testing.T) {
	for _, row := range spacingRows {
		t.Run(row.name, func(t *testing.T) {
			synctest.Run(func() {
				r := newSpacingRig(t, clock.Real, time.Sleep, row.debounce, row.holdFirst)
				defer r.close()
				row.run(t, r)
			})
		})
	}
}
