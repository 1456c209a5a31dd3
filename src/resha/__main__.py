from resha.cli import main

raise SystemExit(main())
