package solvers

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"spmvtune/internal/sparse"
)

// goldenSystems are the right-hand sides TestSolverTrajectoriesGolden runs
// every solver on: an SPD system, a nonsymmetric one, two that break the
// Krylov recurrences — an antisymmetric matrix (p^T A p = 0, no diagonal)
// and a nilpotent shift (A^5 = 0) — and a diagonal one whose dominant
// eigenvalue is well separated, so power iteration converges.
func goldenSystems() []struct {
	name string
	a    *sparse.CSR
	b    []float64
} {
	spd, spdB, _ := spdSystem(300, 5, 1)
	nonsym, nonsymB, _ := nonsymSystem(300, 7)

	anti := &sparse.COO{Rows: 4, Cols: 4}
	anti.Add(0, 1, 1)
	anti.Add(1, 0, -1)
	anti.Add(2, 3, 1)
	anti.Add(3, 2, -1)
	antiA, _ := anti.ToCSR()

	shift := &sparse.COO{Rows: 5, Cols: 5}
	for i := 0; i+1 < 5; i++ {
		shift.Add(i, i+1, 1)
	}
	shiftA, _ := shift.ToCSR()

	dom := &sparse.COO{Rows: 20, Cols: 20}
	domB := make([]float64, 20)
	for i := 0; i < 19; i++ {
		dom.Add(i, i, float64(i+1))
		domB[i] = 1
	}
	dom.Add(19, 19, 60)
	domB[19] = 1
	domA, _ := dom.ToCSR()

	return []struct {
		name string
		a    *sparse.CSR
		b    []float64
	}{
		{"spd", spd, spdB},
		{"nonsym", nonsym, nonsymB},
		{"antisym", antiA, []float64{1, 1, 1, 1}},
		{"nilpotent", shiftA, []float64{1, 2, 3, 4, 5}},
		{"dominant", domA, domB},
	}
}

// goldenRow prints one solve's outcome: iteration count, residual bits,
// convergence, error text, and a digest of the bits of x (and, for power
// iteration, of lambda).
func goldenRow(res Result, err error, x []float64, lambda *float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	row := fmt.Sprintf("iters=%d res=%016x conv=%t err=%q x=%x",
		res.Iterations, math.Float64bits(res.Residual), res.Converged, fmt.Sprint(err), h.Sum(nil)[:8])
	if lambda != nil {
		row += fmt.Sprintf(" lambda=%016x", math.Float64bits(*lambda))
	}
	return row
}

// goldenTrajectories runs every batch solver on every golden system and
// returns one row per case, keyed "solver/system".
func goldenTrajectories() map[string]string {
	ctx := context.Background()
	const tol = 1e-10
	rows := map[string]string{}
	for _, sys := range goldenSystems() {
		a, b := sys.a, sys.b
		mul := Default(a)
		n := len(b)
		for _, maxIter := range []int{0, 3} {
			suffix := ""
			if maxIter > 0 {
				suffix = fmt.Sprintf("/max%d", maxIter)
			}
			x := make([]float64, n)
			res, err := CGCtx(ctx, mul, b, x, tol, maxIter)
			rows["cg/"+sys.name+suffix] = goldenRow(res, err, x, nil)

			x = make([]float64, n)
			res, err = JacobiCtx(ctx, a, mul, b, x, tol, maxIter)
			rows["jacobi/"+sys.name+suffix] = goldenRow(res, err, x, nil)

			x = make([]float64, n)
			res, err = BiCGSTABCtx(ctx, mul, b, x, tol, maxIter)
			rows["bicgstab/"+sys.name+suffix] = goldenRow(res, err, x, nil)

			x = make([]float64, n)
			for i := range x {
				x[i] = 1
			}
			lambda, res, err := PowerIterationCtx(ctx, mul, x, tol, maxIter)
			rows["power/"+sys.name+suffix] = goldenRow(res, err, x, &lambda)

			// PageRank has no batch form: its stepper runs on the system's
			// column-stochastic pattern under the default 1000-step budget.
			budget := maxIter
			if budget == 0 {
				budget = 1000
			}
			x = make([]float64, n)
			pr, err := NewPageRankStepper(Lift(Default(columnStochastic(a))), x, 0.85, tol)
			if err == nil {
				res, err = run(ctx, pr, budget)
			}
			rows["pagerank/"+sys.name+suffix] = goldenRow(res, err, x, nil)
		}
		for _, restart := range []int{0, 5, 50} {
			x := make([]float64, n)
			res, err := GMRESCtx(ctx, mul, b, x, tol, restart, 0)
			rows[fmt.Sprintf("gmres%d/%s", restart, sys.name)] = goldenRow(res, err, x, nil)
		}
		// The budget ends mid-cycle: 3 Arnoldi steps of a 5-step cycle.
		x := make([]float64, n)
		res, err := GMRESCtx(ctx, mul, b, x, tol, 5, 3)
		rows["gmres5/"+sys.name+"/max3"] = goldenRow(res, err, x, nil)
	}
	return rows
}

// TestSolverTrajectoriesGolden pins each batch solver's outcome — iteration
// count, residual bits, convergence, error text, and the bits of x — on SPD,
// nonsymmetric and breakdown systems, at the default and a 3-iteration
// budget, PageRank on each system's column-stochastic pattern, and GMRES at restart 0, 5 and 50 plus a budget that ends mid-cycle.
// A failure means a trajectory moved: do not regenerate the table to make it
// pass.
func TestSolverTrajectoriesGolden(t *testing.T) {
	want := goldenWant
	got := goldenTrajectories()
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("unpinned case %q: %s", k, g)
		} else if g != w {
			t.Errorf("%s:\n got %s\nwant %s", k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("case %q not run", k)
		}
	}
}

// goldenWant is the expected row of every goldenTrajectories case.
var goldenWant = map[string]string{
	"bicgstab/antisym":        `iters=0 res=3ff0000000000000 conv=false err="solvers: breakdown: rHat^T v vanished" x=66687aadf862bd77`,
	"bicgstab/antisym/max3":   `iters=0 res=3ff0000000000000 conv=false err="solvers: breakdown: rHat^T v vanished" x=66687aadf862bd77`,
	"bicgstab/dominant":       `iters=19 res=3dc6feee86c5bb56 conv=true err="<nil>" x=f9e3a782d5f2ec64`,
	"bicgstab/dominant/max3":  `iters=3 res=3fc32d8011a521f4 conv=false err="solvers: not converged after 3 iterations (residual 0.1498260580213039)" x=c0a771930d23173c`,
	"bicgstab/nilpotent":      `iters=50 res=3ff1274f9559f1eb conv=false err="solvers: not converged after 50 iterations (residual 1.0720973810231225)" x=68c4aa1c0db861b2`,
	"bicgstab/nilpotent/max3": `iters=3 res=3ff26de7913dc57e conv=false err="solvers: not converged after 3 iterations (residual 1.151832167958076)" x=003dff6b16b6899f`,
	"bicgstab/nonsym":         `iters=10 res=3dc32d37c696b21f conv=true err="<nil>" x=e0021bc9a87310c1`,
	"bicgstab/nonsym/max3":    `iters=3 res=3f3e831ccc510bf2 conv=false err="solvers: not converged after 3 iterations (residual 0.0004655785854234532)" x=6b4d76c334e63975`,
	"bicgstab/spd":            `iters=14 res=3dced3842e5a4fbb conv=true err="<nil>" x=1a0404c5df228405`,
	"bicgstab/spd/max3":       `iters=3 res=3f59c88932108510 conv=false err="solvers: not converged after 3 iterations (residual 0.0015736903953967353)" x=89b539d201dbbf43`,
	"cg/antisym":              `iters=0 res=3ff0000000000000 conv=false err="solvers: breakdown: p^T A p = 0 (matrix not SPD?)" x=66687aadf862bd77`,
	"cg/antisym/max3":         `iters=0 res=3ff0000000000000 conv=false err="solvers: breakdown: p^T A p = 0 (matrix not SPD?)" x=66687aadf862bd77`,
	"cg/dominant":             `iters=21 res=3c58fd09ec22a38b conv=true err="<nil>" x=851a3a7a60103a06`,
	"cg/dominant/max3":        `iters=3 res=3fd67d02885bb69a conv=false err="solvers: not converged after 3 iterations (residual 0.35137999836192935)" x=1948292f42f39e95`,
	"cg/nilpotent":            `iters=13 res=437509e7d37c9955 conv=false err="solvers: breakdown: p^T A p = 0 (matrix not SPD?)" x=6788c8f67bf3b9b0`,
	"cg/nilpotent/max3":       `iters=3 res=406ee843590cd158 conv=false err="solvers: not converged after 3 iterations (residual 247.2582211733195)" x=89a9e1df26724dbe`,
	"cg/nonsym":               `iters=3000 res=3fc218cb31a7dc12 conv=false err="solvers: not converged after 3000 iterations (residual 0.1413816444835168)" x=54e4ce55a7e00ee1`,
	"cg/nonsym/max3":          `iters=3 res=3f9b444d20b6b430 conv=false err="solvers: not converged after 3 iterations (residual 0.026627736207661623)" x=69caffbf6e4071c7`,
	"cg/spd":                  `iters=21 res=3dd0275c5a10e774 conv=true err="<nil>" x=ac8cb0438b5b45b6`,
	"cg/spd/max3":             `iters=3 res=3f90c2b3c275ff4e conv=false err="solvers: not converged after 3 iterations (residual 0.016367729896500642)" x=e6d5a8a49a9a8da2`,
	"gmres0/antisym":          `iters=2 res=0000000000000000 conv=true err="<nil>" x=ac44b3214636dc7a`,
	"gmres0/dominant":         `iters=20 res=3cc30522a6c49621 conv=true err="<nil>" x=6463e6647646f64d`,
	"gmres0/nilpotent":        `iters=30 res=3fe5930b9707ea11 conv=false err="solvers: breakdown: singular Hessenberg diagonal" x=c50d9960b8a47640`,
	"gmres0/nonsym":           `iters=19 res=3dc05b3500c45ace conv=true err="<nil>" x=707592edce6ac3b5`,
	"gmres0/spd":              `iters=21 res=3dce61f73e4c0ada conv=true err="<nil>" x=700fda9ad4278c35`,
	"gmres5/antisym":          `iters=2 res=0000000000000000 conv=true err="<nil>" x=ac44b3214636dc7a`,
	"gmres5/antisym/max3":     `iters=2 res=0000000000000000 conv=true err="<nil>" x=ac44b3214636dc7a`,
	"gmres5/dominant":         `iters=80 res=3dd6fc129bd4d53c conv=true err="<nil>" x=164c8ba26f9d015f`,
	"gmres5/dominant/max3":    `iters=3 res=3fd1541b7569c634 conv=false err="solvers: not converged after 3 iterations (residual 0.2707584997761814)" x=a55554d7ae709e40`,
	"gmres5/nilpotent":        `iters=30 res=3fe5930b9707ea11 conv=false err="solvers: breakdown: singular Hessenberg diagonal" x=c50d9960b8a47640`,
	"gmres5/nilpotent/max3":   `iters=3 res=3fe5989da6aaf14f conv=false err="solvers: not converged after 3 iterations (residual 0.6748798613767039)" x=f290f23949350c52`,
	"gmres5/nonsym":           `iters=19 res=3dc39e0f77c364aa conv=true err="<nil>" x=150fcc3e601a3939`,
	"gmres5/nonsym/max3":      `iters=3 res=3f90961772f53a68 conv=false err="solvers: not converged after 3 iterations (residual 0.01619755400798298)" x=b6f25e8485302495`,
	"gmres5/spd":              `iters=22 res=3dda3b4d7abd1589 conv=true err="<nil>" x=cc4bab6b73ce1dbf`,
	"gmres5/spd/max3":         `iters=3 res=3f8ff801f5765945 conv=false err="solvers: not converged after 3 iterations (residual 0.01560975580541125)" x=6d06852b88055100`,
	"gmres50/antisym":         `iters=2 res=0000000000000000 conv=true err="<nil>" x=ac44b3214636dc7a`,
	"gmres50/dominant":        `iters=20 res=3cc30522a6c49621 conv=true err="<nil>" x=6463e6647646f64d`,
	"gmres50/nilpotent":       `iters=30 res=3fe5930b9707ea11 conv=false err="solvers: breakdown: singular Hessenberg diagonal" x=c50d9960b8a47640`,
	"gmres50/nonsym":          `iters=19 res=3dc05b3500c45ace conv=true err="<nil>" x=707592edce6ac3b5`,
	"gmres50/spd":             `iters=21 res=3dce61f73e4c0ada conv=true err="<nil>" x=700fda9ad4278c35`,
	"jacobi/antisym":          `iters=0 res=0000000000000000 conv=false err="solvers: breakdown: zero diagonal at row 0" x=66687aadf862bd77`,
	"jacobi/antisym/max3":     `iters=0 res=0000000000000000 conv=false err="solvers: breakdown: zero diagonal at row 0" x=66687aadf862bd77`,
	"jacobi/dominant":         `iters=2 res=0000000000000000 conv=true err="<nil>" x=c9c23f1b46401dee`,
	"jacobi/dominant/max3":    `iters=2 res=0000000000000000 conv=true err="<nil>" x=c9c23f1b46401dee`,
	"jacobi/nilpotent":        `iters=0 res=0000000000000000 conv=false err="solvers: breakdown: zero diagonal at row 0" x=2c34ce1df23b838c`,
	"jacobi/nilpotent/max3":   `iters=0 res=0000000000000000 conv=false err="solvers: breakdown: zero diagonal at row 0" x=2c34ce1df23b838c`,
	"jacobi/nonsym":           `iters=24 res=3dc5c1321c11503b conv=true err="<nil>" x=cd2b060d7b5d4018`,
	"jacobi/nonsym/max3":      `iters=3 res=3fb4da00d91f20ab conv=false err="solvers: not converged after 3 iterations (residual 0.08145146656818507)" x=92368d986e214f99`,
	"jacobi/spd":              `iters=58 res=3dd7d2ccc88ab17c conv=true err="<nil>" x=608385a63be220cc`,
	"jacobi/spd/max3":         `iters=3 res=3fdbfd9912dee4d1 conv=false err="solvers: not converged after 3 iterations (residual 0.43735339014854185)" x=55869f8251eb89c9`,
	"pagerank/antisym":        `iters=1 res=0000000000000000 conv=true err="<nil>" x=5073e61eafb5e090`,
	"pagerank/antisym/max3":   `iters=1 res=0000000000000000 conv=true err="<nil>" x=5073e61eafb5e090`,
	"pagerank/dominant":       `iters=1 res=0000000000000000 conv=true err="<nil>" x=8bc83832681abdc1`,
	"pagerank/dominant/max3":  `iters=1 res=0000000000000000 conv=true err="<nil>" x=8bc83832681abdc1`,
	"pagerank/nilpotent":      `iters=6 res=0000000000000000 conv=true err="<nil>" x=df18c939bb461da3`,
	"pagerank/nilpotent/max3": `iters=3 res=3fbf71758e219652 conv=false err="solvers: not converged after 3 iterations (residual 0.12282499999999999)" x=ffb7fe60a35acdc4`,
	"pagerank/nonsym":         `iters=105 res=3dd7b585a4000000 conv=true err="<nil>" x=df1100f2061b0348`,
	"pagerank/nonsym/max3":    `iters=3 res=3f565c2af3508080 conv=false err="solvers: not converged after 3 iterations (residual 0.0013647479474983293)" x=8ac8d309dea547d9`,
	"pagerank/spd":            `iters=73 res=3dd9ce8fa4000000 conv=true err="<nil>" x=53042f1573cabe2a`,
	"pagerank/spd/max3":       `iters=3 res=3f28f8b701b6d9a0 conv=false err="solvers: not converged after 3 iterations (residual 0.00019051774948559714)" x=7be1180ee7ea204c`,
	"power/antisym":           `iters=2 res=0000000000000000 conv=true err="<nil>" x=a1f1ebb5d1c6349c lambda=0000000000000000`,
	"power/antisym/max3":      `iters=2 res=0000000000000000 conv=true err="<nil>" x=a1f1ebb5d1c6349c lambda=0000000000000000`,
	"power/dominant":          `iters=12 res=3e38b39800000000 conv=true err="<nil>" x=144f5cb9d5d901f2 lambda=404dfffffffeb295`,
	"power/dominant/max3":     `iters=3 res=4030a5907335aa96 conv=false err="solvers: not converged after 3 iterations (residual 16.64673538265432)" x=dc40b59f6ab48426 lambda=404d16e4e75d421a`,
	"power/nilpotent":         `iters=4 res=3fc5555555555558 conv=false err="solvers: breakdown: A annihilated the iterate" x=dfa15abd36e7b5ba lambda=0000000000000000`,
	"power/nilpotent/max3":    `iters=3 res=3fb5555555555548 conv=false err="solvers: not converged after 3 iterations (residual 0.08333333333333315)" x=76cad20184f8e42a lambda=3fe5555555555557`,
	"power/nonsym":            `iters=1000 res=3f3a4c3418900000 conv=false err="solvers: not converged after 1000 iterations (residual 0.0004012705981608633)" x=17c7ab05e704095e lambda=402055adea8305a4`,
	"power/nonsym/max3":       `iters=3 res=3f91f789ccf3b180 conv=false err="solvers: not converged after 3 iterations (residual 0.017545846113465213)" x=709425210173b856 lambda=400e4a7115b39cfb`,
	"power/spd":               `iters=1000 res=3eda04c8a7200000 conv=false err="solvers: not converged after 1000 iterations (residual 6.2033383176895995e-06)" x=eea26e8a0c36d132 lambda=40207cd45c73dba5`,
	"power/spd/max3":          `iters=3 res=3fda4d8892ef2cd0 conv=false err="solvers: not converged after 3 iterations (residual 0.41098226880121747)" x=38b7e5a25b800c79 lambda=4003e90478051b4a`,
}
