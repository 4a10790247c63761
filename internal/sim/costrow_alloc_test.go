package sim_test

import (
	"testing"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// TestCostRowsRebuildAllocFree pins that the per-job graph change of a
// fleet node allocates nothing once row and staged-cell storage has grown:
// a warm ledger-attached Ondemand executor alternating AlexNet and
// ResNet-18 allocates no more per RunTask than one repeating AlexNet.
func TestCostRowsRebuildAllocFree(t *testing.T) {
	p := hw.TX2()
	alex, resnet := models.AlexNet(), models.MustBuild("resnet18")
	newExec := func() *sim.Executor {
		e := sim.NewExecutor(p, governor.NewOndemand())
		e.SensorPeriod = 0
		e.Ledger = ledger.New()
		return e
	}
	warm := func(e *sim.Executor) {
		for i := 0; i < 3; i++ {
			e.RunTask(alex, 2)
			e.RunTask(resnet, 2)
		}
	}

	same := newExec()
	warm(same)
	sameAllocs := testing.AllocsPerRun(20, func() { same.RunTask(alex, 2) })

	alt := newExec()
	warm(alt)
	flip := false
	altAllocs := testing.AllocsPerRun(20, func() {
		if flip = !flip; flip {
			alt.RunTask(alex, 2)
		} else {
			alt.RunTask(resnet, 2)
		}
	})
	if altAllocs > sameAllocs {
		t.Fatalf("alternating graphs allocated %.1f times per run, repeating one %.1f", altAllocs, sameAllocs)
	}
}
