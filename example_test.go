package objmig_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"objmig"
)

// Account is an example object state: a struct of plain data.
type Account struct {
	Balance int
}

func newAccountType() *objmig.Type[Account] {
	t := objmig.NewType[Account]("account")
	objmig.HandleFunc(t, "Deposit", func(c *objmig.Ctx, a *Account, amount int) (int, error) {
		a.Balance += amount
		return a.Balance, nil
	})
	return t
}

// Example shows the minimal lifecycle: host an object, invoke it from
// another node, migrate it, and keep invoking through the same Ref.
func Example() {
	ctx := context.Background()
	cluster := objmig.NewLocalCluster()

	mk := func(id objmig.NodeID) *objmig.Node {
		n, err := objmig.NewNode(objmig.Config{ID: id, Cluster: cluster})
		if err != nil {
			log.Fatal(err)
		}
		if err := n.RegisterType(newAccountType()); err != nil {
			log.Fatal(err)
		}
		return n
	}
	bank, branch := mk("bank"), mk("branch")
	defer func() { _ = bank.Close(); _ = branch.Close() }()

	acct, err := bank.Create("account")
	if err != nil {
		log.Fatal(err)
	}
	balance, err := objmig.Call[int, int](ctx, branch, acct, "Deposit", 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after remote deposit:", balance)

	if err := bank.Migrate(ctx, acct, "branch"); err != nil {
		log.Fatal(err)
	}
	balance, err = objmig.Call[int, int](ctx, bank, acct, "Deposit", 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after migration and deposit:", balance)
	// Output:
	// after remote deposit: 100
	// after migration and deposit: 150
}

// ExampleNode_EnableAutopilot shows affinity-driven self-placement: no
// migration primitive is ever called, yet the object converges onto
// the node that uses it.
func ExampleNode_EnableAutopilot() {
	ctx := context.Background()
	cluster := objmig.NewLocalCluster()
	mk := func(id objmig.NodeID) *objmig.Node {
		n, err := objmig.NewNode(objmig.Config{ID: id, Cluster: cluster})
		if err != nil {
			log.Fatal(err)
		}
		if err := n.RegisterType(newAccountType()); err != nil {
			log.Fatal(err)
		}
		return n
	}
	bank, branch := mk("bank"), mk("branch")
	defer func() { _ = bank.Close(); _ = branch.Close() }()

	acct, err := bank.Create("account")
	if err != nil {
		log.Fatal(err)
	}
	// The autopilot watches per-caller access pressure on the objects
	// this node hosts and migrates them towards dominant callers.
	if err := bank.EnableAutopilot(objmig.AutopilotConfig{
		Interval: 2 * time.Millisecond,
		MinTotal: 8,
	}); err != nil {
		log.Fatal(err)
	}

	// All traffic comes from the branch…
	for i := 0; i < 64; i++ {
		if _, err := objmig.Call[int, int](ctx, branch, acct, "Deposit", 1); err != nil {
			log.Fatal(err)
		}
	}
	// …so the account migrates there on its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		at, err := bank.Locate(ctx, acct)
		if err == nil && at == "branch" {
			fmt.Println("account converged at:", at)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("autopilot did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Output:
	// account converged at: branch
}

// ExampleNode_Move shows a move-block under transient placement: the
// block brings the object here, works on it locally, and releases it
// with the implicit end-request.
func ExampleNode_Move() {
	ctx := context.Background()
	cluster := objmig.NewLocalCluster()
	mk := func(id objmig.NodeID) *objmig.Node {
		n, err := objmig.NewNode(objmig.Config{
			ID: id, Cluster: cluster, Policy: objmig.PolicyPlacement,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := n.RegisterType(newAccountType()); err != nil {
			log.Fatal(err)
		}
		return n
	}
	home, worker := mk("home"), mk("worker")
	defer func() { _ = home.Close(); _ = worker.Close() }()

	acct, err := home.Create("account")
	if err != nil {
		log.Fatal(err)
	}
	err = worker.Move(ctx, acct, func(ctx context.Context, b *objmig.Block) error {
		fmt.Println("granted:", b.Granted, "at:", b.At)
		for i := 0; i < 3; i++ {
			if _, err := objmig.Call[int, int](ctx, worker, acct, "Deposit", 10); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	balance, err := objmig.Call[int, int](ctx, home, acct, "Deposit", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final balance:", balance)
	// Output:
	// granted: true at: worker
	// final balance: 30
}
