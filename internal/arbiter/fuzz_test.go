package arbiter

import (
	"slices"
	"testing"
)

// FuzzArbiterAllocate decodes arbitrary bytes into a tenant mix plus a
// demand stream and holds the packed allocator byte-identical to the
// naive reference across three cycles of evolving virtual-service
// state. Run longer in CI's tenant-smoke job (-fuzztime 30s).
func FuzzArbiterAllocate(f *testing.F) {
	f.Add([]byte{1, 0, 10, 1, 0, 0, 0, 5, 5, 5})
	f.Add([]byte{0, 3, 7, 1, 2, 0, 0, 4, 0, 3, 9, 1, 16, 1, 8, 2, 0, 0, 0, 1})
	f.Add([]byte{0, 2, 0, 1, 0, 0, 0, 1, 0, 0, 1, 200, 200})
	f.Add([]byte{0, 5, 255, 8, 3, 4, 2, 1, 1, 1, 0, 9, 9, 9, 9, 9, 30, 0, 30, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		policy := PolicyFairShare
		if next()%2 == 1 {
			policy = PolicyGreedy
		}
		n := 1 + int(next()%64)
		total := int64(next()) + int64(next())
		al := &allocator{policy: policy, total: total}
		for i := 0; i < n; i++ {
			weight := int64(1 + next()%16)
			floor := int64(next() % 5)
			var ceil int64
			if b := next(); b%3 == 0 {
				ceil = int64(b % 8)
			}
			al.addTenant(weight, floor, ceil, int32(next()%3))
			al.vsvc[i] = int64(next()) * vsvcUnit / 4
		}
		demand := make([]int64, n)
		grant := make([]int64, n)
		for cycle := 0; cycle < 3; cycle++ {
			for i := range demand {
				demand[i] = int64(next()) - 1
			}
			al.allocate(demand, grant)
			ref := referenceAllocate(refInput{
				policy: al.policy, total: al.total,
				weight: al.weight, floor: al.floor, ceil: al.ceil,
				prio: al.prio, vsvc: al.vsvc, demand: demand,
			})
			if !slices.Equal(grant, ref) {
				t.Fatalf("cycle %d: packed %v != reference %v\ndemand %v weights %v floors %v ceils %v prios %v vsvc %v total %d policy %d",
					cycle, grant, ref, demand, al.weight, al.floor, al.ceil, al.prio, al.vsvc, al.total, al.policy)
			}
			var sum int64
			for _, g := range grant {
				sum += g
			}
			if sum > al.total {
				t.Fatalf("cycle %d: Σgrant %d > total %d", cycle, sum, al.total)
			}
			al.commit(grant)
		}
	})
}
