namespace demo {

int roll_dice(double weight) {
  std::mt19937 gen;
  int r = rand();
  std::cout << r << std::endl;
  if (weight == 0.5) return 0;
  return r;
}

}  // namespace demo
